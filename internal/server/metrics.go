package server

import (
	"fmt"
	"net/http"
	"time"
)

// handleMetrics serves plain-text operational counters in the Prometheus
// exposition format (gauges only, no client library needed):
//
//	simserve_uptime_seconds                          server uptime
//	simserve_trackers                                registered trackers
//	simserve_ingested_total{tracker="..."}           accepted actions (rate() of it is the ingest rate)
//	simserve_value{tracker="..."}                    current influence value
//	simserve_checkpoints_live{tracker="..."}         live checkpoints
//	simserve_elements_fed_total{tracker="..."}       oracle updates (the O(d·N) term): elements whose influence set changed
//	simserve_elements_unchanged_total{tracker="..."} touched (contributor, checkpoint) pairs not fed, the set being unchanged, since boot
//	simserve_scans_total{tracker="..."}              fed elements whose influence set was scanned, since boot
//	simserve_scan_members_total{tracker="..."}       influence-set members those scans probed, since boot
//	simserve_view_rebuilds_total{tracker="..."}      publishes that read the whole candidate pool, since boot
//	simserve_view_reuses_total{tracker="..."}        publishes that carried the previous snapshot's pool over
//	simserve_view_refreshed_total{tracker="..."}     pool entries those carry-overs still re-read
//	simserve_queue_depth{tracker="..."}              commands waiting for the ingest loop
//	simserve_queue_capacity{tracker="..."}           ingest queue bound
//	simserve_queue_high_water{tracker="..."}         deepest the queue has been
//	simserve_shed_total{tracker="..."}               ingests rejected 429 by admission control
//	simserve_snapshot_retries_total{tracker="..."}   failed snapshot-write attempts
//	simserve_wal_rearms_total{tracker="..."}         durability re-arms after poisoning
//	simserve_state{tracker="..."}                    0 ok, 1 degraded-readonly, 2 recovering
//	simserve_resident_bytes{tracker="..."}           estimated resident stream-index bytes
//	simserve_hot_log_bytes{tracker="..."}            in-memory contribution-log bytes
//	simserve_cold_log_bytes{tracker="..."}           spilled contribution-log bytes on disk
//	simserve_cold_segments{tracker="..."}            live cold segment files
//	simserve_spills_total{tracker="..."}             spill passes since boot
//	simserve_cold_faults_total{tracker="..."}        cold segment reads (query-triggered) since boot
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
		depth, capacity := t.QueueDepth()
		fmt.Fprintf(w, "simserve_ingested_total{tracker=%q} %d\n", name, snap.Processed)
		fmt.Fprintf(w, "simserve_value{tracker=%q} %g\n", name, snap.Value)
		fmt.Fprintf(w, "simserve_checkpoints_live{tracker=%q} %d\n", name, snap.Checkpoints)
		fmt.Fprintf(w, "simserve_elements_fed_total{tracker=%q} %d\n", name, snap.ElementsFed)
		fmt.Fprintf(w, "simserve_elements_unchanged_total{tracker=%q} %d\n", name, snap.ElementsUnchanged)
		fmt.Fprintf(w, "simserve_scans_total{tracker=%q} %d\n", name, snap.Scans)
		fmt.Fprintf(w, "simserve_scan_members_total{tracker=%q} %d\n", name, snap.ScanMembers)
		fmt.Fprintf(w, "simserve_view_rebuilds_total{tracker=%q} %d\n", name, snap.ViewRebuilds)
		fmt.Fprintf(w, "simserve_view_reuses_total{tracker=%q} %d\n", name, snap.ViewReuses)
		fmt.Fprintf(w, "simserve_view_refreshed_total{tracker=%q} %d\n", name, snap.ViewRefreshed)
		fmt.Fprintf(w, "simserve_queue_depth{tracker=%q} %d\n", name, depth)
		fmt.Fprintf(w, "simserve_queue_capacity{tracker=%q} %d\n", name, capacity)
		retries, rearms, shed, highWater := t.Counters()
		fmt.Fprintf(w, "simserve_queue_high_water{tracker=%q} %d\n", name, highWater)
		fmt.Fprintf(w, "simserve_shed_total{tracker=%q} %d\n", name, shed)
		fmt.Fprintf(w, "simserve_snapshot_retries_total{tracker=%q} %d\n", name, retries)
		fmt.Fprintf(w, "simserve_wal_rearms_total{tracker=%q} %d\n", name, rearms)
		fmt.Fprintf(w, "simserve_state{tracker=%q} %d\n", name, t.State())
		fmt.Fprintf(w, "simserve_resident_bytes{tracker=%q} %d\n", name, snap.ResidentBytes)
		fmt.Fprintf(w, "simserve_hot_log_bytes{tracker=%q} %d\n", name, snap.HotLogBytes)
		fmt.Fprintf(w, "simserve_cold_log_bytes{tracker=%q} %d\n", name, snap.ColdLogBytes)
		fmt.Fprintf(w, "simserve_cold_segments{tracker=%q} %d\n", name, snap.ColdSegments)
		fmt.Fprintf(w, "simserve_spills_total{tracker=%q} %d\n", name, snap.Spills)
		fmt.Fprintf(w, "simserve_cold_faults_total{tracker=%q} %d\n", name, snap.ColdFaults)
	}
}
