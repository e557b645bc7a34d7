// Command simtrack runs a continuous SIM query over an action stream and
// periodically reports the current influential users — the end-to-end tool a
// practitioner would run against a live feed.
//
// Input is an NDJSON action stream, as simgen writes it, read from a file or
// stdin:
//
//	simgen -preset twitter | simtrack -k 10 -window 50000 -report 25000
//	simtrack -in twitter.ndjson -framework ic -oracle threshold
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/dataio"
	"repro/sim"
)

func main() {
	var (
		in        = flag.String("in", "", "input NDJSON stream file (default stdin)")
		k         = flag.Int("k", 10, "seed budget k")
		window    = flag.Int("window", 50000, "window size N")
		slide     = flag.Int("slide", 1, "slide length L")
		beta      = flag.Float64("beta", 0.1, "beta knob")
		framework = flag.String("framework", "sic", "framework: sic or ic")
		orc       = flag.String("oracle", "sieve", "oracle: sieve, threshold, blogwatch, mkc")
		report    = flag.Int64("report", 10000, "report every this many actions")
	)
	flag.Parse()

	fwk, err := sim.ParseFramework(*framework)
	if err != nil {
		fatalf("%v", err)
	}
	o, err := sim.ParseOracle(*orc)
	if err != nil {
		fatalf("%v", err)
	}
	tr, err := sim.New(sim.Config{K: *k, WindowSize: *window, Slide: *slide, Beta: *beta, Framework: fwk, Oracle: o})
	if err != nil {
		fatalf("%v", err)
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		r = f
	}

	start := time.Now()
	var count int64
	var procErr error
	err = dataio.ReadNDJSON(r, func(a sim.Action) bool {
		if procErr = tr.Process(a); procErr != nil {
			return false
		}
		count++
		if count%*report == 0 {
			st := tr.Stats()
			rate := float64(count) / time.Since(start).Seconds() / 1000
			fmt.Printf("t=%-10d value=%-8.1f checkpoints=%-4d rate=%.1fK/s seeds=%v\n",
				a.ID, tr.Value(), st.Checkpoints, rate, tr.Seeds())
		}
		return true
	})
	if err != nil {
		fatalf("%v", err)
	}
	if procErr != nil {
		fatalf("%v", procErr)
	}
	fmt.Printf("final: processed=%d value=%.1f seeds=%v\n", count, tr.Value(), tr.Seeds())
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "simtrack: "+format+"\n", args...)
	os.Exit(1)
}
