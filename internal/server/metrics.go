package server

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"time"

	"repro/api"
)

// handleMetrics serves plain-text operational counters in the Prometheus
// exposition format (gauges only, no client library needed): the server's
// uptime and tracker count, then for each tracker one series per
// metric-tagged field of the struct below — four snapshot values, the
// serving state (0 ok, 1 degraded-readonly) and the tracker's Metrics,
// sim.Counters included — labelled with the tracker's name. The
// fields' docs are the series' documentation; rate() of
// simserve_ingested_total is the ingest rate.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "simserve_uptime_seconds %g\n", time.Since(s.started).Seconds())
	names := s.reg.Names()
	fmt.Fprintf(w, "simserve_trackers %d\n", len(names))
	for _, name := range names {
		t, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		snap := t.Snapshot()
		writeSeries(w, name, reflect.ValueOf(struct {
			Processed   int64   `metric:"ingested_total"`
			Value       float64 `metric:"value"`
			Checkpoints int     `metric:"checkpoints_live"`
			ElementsFed int64   `metric:"elements_fed_total"`
			State       int     `metric:"state"`
			api.TrackerMetricsResponse
		}{snap.Processed, snap.Value, snap.Checkpoints, snap.ElementsFed, int(t.State()), t.Metrics()}))
	}
}

// writeSeries writes one line for each field of the struct v that carries
// a metric tag, descending into embedded structs: the tag is the series
// name after "simserve_".
func writeSeries(w io.Writer, tracker string, v reflect.Value) {
	for i := range v.NumField() {
		if f := v.Type().Field(i); f.Anonymous {
			writeSeries(w, tracker, v.Field(i))
		} else if series := f.Tag.Get("metric"); series != "" {
			fmt.Fprintf(w, "simserve_%s{tracker=%q} %v\n", series, tracker, v.Field(i))
		}
	}
}
