package bench

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/oracle"
	"repro/sim"
)

// paperClaim is one ordinal shape of the paper's evaluation (§6), checked on
// one dataset with the harness functions the experiment prints it from. The
// slack is the claim's tolerance; what it means is stated in the claim.
type paperClaim struct {
	row   string // the table or figure, and which of its shapes
	claim string
	slack float64
	only  string // the one dataset a wall-clock claim runs on; "" = all four
	check func(ds Dataset, slack float64) error
}

// TestPaperClaims pins the shapes simbench prints as notes, on all four
// generated datasets at ScaleSmoke. Every row is ordinal: who beats whom,
// what does not grow, which bound holds, each with a stated slack. The
// shapes that do not hold at this scale are recorded in RESULTS.md instead
// of asserted. Only the Fig 9 and Fig 10 rows read the wall clock, on one
// dataset, with a margin several times below the measured one.
func TestPaperClaims(t *testing.T) {
	sc := ScaleSmoke()
	s := shrink(sc, 2) // the scale of Figs 5–8 and Table 2
	cps := func(m runMetrics) float64 { return m.AvgCheckpoints }
	val := func(m runMetrics) float64 { return m.AvgValue }
	claims := []paperClaim{
		{
			row: "Fig 6 IC count", claim: "IC keeps ⌈N/L⌉ ± slack checkpoints at every β", slack: 1,
			check: func(ds Dataset, slack float64) error {
				want := math.Ceil(float64(s.Window) / float64(s.Slide))
				return eachBeta(func(b float64) error {
					if got := sweep(s, ds, sim.IC, b).AvgCheckpoints; math.Abs(got-want) > slack {
						return fmt.Errorf("β %.1f: IC keeps %.1f checkpoints, want %.0f ± %.0f", b, got, want, slack)
					}
					return nil
				})
			},
		},
		{
			row: "Fig 6 SIC below IC", claim: "SIC keeps strictly fewer checkpoints than IC at every β",
			check: func(ds Dataset, _ float64) error {
				return eachBeta(func(b float64) error {
					if sic, ic := sweep(s, ds, sim.SIC, b).AvgCheckpoints, sweep(s, ds, sim.IC, b).AvgCheckpoints; sic >= ic {
						return fmt.Errorf("β %.1f: SIC keeps %.1f checkpoints, IC %.1f", b, sic, ic)
					}
					return nil
				})
			},
		},
		{
			row: "Fig 6 SIC over beta", claim: "SIC's checkpoint count does not increase with β",
			check: func(ds Dataset, slack float64) error { return nonIncreasing(s, ds, sim.SIC, cps, slack) },
		},
		{
			row: "Fig 6 SIC bound", claim: "SIC keeps ≤ slack·ln N/β checkpoints (the O(log N/β) bound with c = slack)", slack: 1,
			check: func(ds Dataset, c float64) error {
				return eachBeta(func(b float64) error {
					bound := c * math.Log(float64(s.Window)) / b
					if got := sweep(s, ds, sim.SIC, b).AvgCheckpoints; got > bound {
						return fmt.Errorf("β %.1f: SIC keeps %.1f checkpoints, bound %.1f", b, got, bound)
					}
					return nil
				})
			},
		},
		{
			row: "Fig 5 SIC below IC", claim: "SIC's value is ≤ (1+slack)·IC's at every β", slack: 0.02,
			check: func(ds Dataset, slack float64) error {
				return eachBeta(func(b float64) error {
					if sic, ic := sweep(s, ds, sim.SIC, b).AvgValue, sweep(s, ds, sim.IC, b).AvgValue; sic > (1+slack)*ic {
						return fmt.Errorf("β %.1f: SIC value %.1f above (1+%.2f)·IC %.1f", b, sic, slack, ic)
					}
					return nil
				})
			},
		},
		{
			row: "Fig 5 value over beta", claim: "SIC's and IC's values do not increase with β, within a factor 1+slack", slack: 0.02,
			check: func(ds Dataset, slack float64) error {
				if err := nonIncreasing(s, ds, sim.SIC, val, slack); err != nil {
					return err
				}
				return nonIncreasing(s, ds, sim.IC, val, slack)
			},
		},
		{
			row: "Fig 7 elements fed", claim: "SIC feeds its oracles fewer elements than IC at every β (the deterministic side of SIC's throughput lead)",
			check: func(ds Dataset, _ float64) error {
				return eachBeta(func(b float64) error {
					if sic, ic := sweep(s, ds, sim.SIC, b).ElementsFed, sweep(s, ds, sim.IC, b).ElementsFed; sic >= ic {
						return fmt.Errorf("β %.1f: SIC fed %d elements, IC %d", b, sic, ic)
					}
					return nil
				})
			},
		},
		{
			row: "Fig 8 spread vs Greedy", claim: "SIC's and IC's spread are each ≥ (1−slack)·Greedy's at every k", slack: 0.15,
			check: func(ds Dataset, slack float64) error {
				for _, k := range kSweep(s) {
					q := runQuality(ds, s, k)
					for _, m := range []string{"SIC", "IC"} {
						if q[m] < (1-slack)*q["Greedy"] {
							return fmt.Errorf("k %d: %s spread %.1f below (1−%.2f)·Greedy %.1f", k, m, q[m], slack, q["Greedy"])
						}
					}
				}
				return nil
			},
		},
		{
			row: "Table 2 guarantees", claim: "each oracle's value is ≥ its guarantee × the offline greedy value",
			check: func(ds Dataset, _ float64) error {
				guarantee := map[oracle.Kind]float64{
					oracle.SieveStreaming: 0.5 - s.Beta, oracle.ThresholdStream: 0.5 - s.Beta,
					oracle.BlogWatch: 0.25, oracle.MkC: 0.25,
				}
				for _, kind := range table2Oracles {
					o, ref, _ := runOracle(ds, s, kind)
					if o.Value() < guarantee[kind]*ref {
						return fmt.Errorf("%v: value %.1f below %.2f × greedy %.1f", kind, o.Value(), guarantee[kind], ref)
					}
				}
				return nil
			},
		},
		{
			row: "Fig 9 largest k", claim: "SIC's throughput is ≥ slack × naive Greedy's at the largest k (wall clock)", slack: 10, only: "SYN-N",
			check: func(ds Dataset, slack float64) error {
				ks := kSweep(sc)
				return throughputLead(runThroughput(ds, sc, ks[len(ks)-1], sc.Window, sc.Slide, sc.Beta), slack)
			},
		},
		{
			row: "Fig 10 largest N", claim: "SIC's throughput is ≥ slack × naive Greedy's at the largest N (wall clock)", slack: 10, only: "SYN-N",
			check: func(ds Dataset, slack float64) error {
				return throughputLead(runThroughput(ds, sc, sc.K, 2*sc.Window, sc.Slide, sc.Beta), slack)
			},
		},
	}

	dss := Datasets(s)
	full := Datasets(sc)
	for _, c := range claims {
		for i, ds := range dss {
			if c.only != "" && ds.Name != c.only {
				continue
			}
			if c.only != "" {
				ds = full[i] // Figs 9 and 10 run at the unshrunk scale
			}
			t.Run(c.row+"/"+ds.Name, func(t *testing.T) {
				if err := c.check(ds, c.slack); err != nil {
					t.Errorf("%s: %s: %v", c.row, c.claim, err)
				}
			})
		}
	}
}

// eachBeta runs check at every β of the Figs 5–7 sweep and returns the first
// failure.
func eachBeta(check func(beta float64) error) error {
	for _, b := range betaSweep {
		if err := check(b); err != nil {
			return err
		}
	}
	return nil
}

// nonIncreasing checks that metric does not grow along the β sweep by more
// than a factor 1+slack from one β to the next.
func nonIncreasing(s Scale, ds Dataset, fw sim.Framework, metric func(runMetrics) float64, slack float64) error {
	prev := math.Inf(1)
	return eachBeta(func(b float64) error {
		v := metric(sweep(s, ds, fw, b))
		if v > (1+slack)*prev {
			return fmt.Errorf("%v: %.1f at β %.1f, up from %.1f", fw, v, b, prev)
		}
		prev = v
		return nil
	})
}

// throughputLead checks that SIC's throughput is at least slack times naive
// Greedy's.
func throughputLead(tp throughputRun, slack float64) error {
	if tp["SIC"] < slack*tp["Greedy"] {
		return fmt.Errorf("SIC %.0f actions/s, naive Greedy %.0f: lead %.1f×, want ≥ %.0f×",
			tp["SIC"], tp["Greedy"], tp["SIC"]/tp["Greedy"], slack)
	}
	return nil
}
