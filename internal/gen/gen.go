// Package gen synthesizes social action streams for the experiments.
//
// The paper evaluates on two crawled datasets (Reddit comments of May 2015
// and a one-week Twitter crawl) and two synthetic streams (SYN-O, SYN-N).
// The crawls are not redistributable, so this package provides simulators
// that reproduce the statistics Table 3 reports and that actually drive the
// algorithms' behaviour:
//
//   - user activity skew (heavy-tailed, so influential users exist),
//   - the root/reply mix, which fixes the mean cascade depth d — the cost
//     multiplier in IC/SIC's O(d·g·N) update bound,
//   - the response-distance distribution, which controls how fast influence
//     sets decay across the sliding window (the contrast the SYN-O/SYN-N
//     pair isolates: "old posts get more followers" vs "recent posts get
//     more followers").
//
// SYN-O and SYN-N are implemented exactly as described in §6.1: an R-MAT
// user graph supplies power-law activity weights and response distances are
// exponential with rate λ. The Reddit-like and Twitter-like presets tune
// root probability and distances to hit Table 3's average depth (≈4.6 deep
// comment trees vs ≈1.9 shallow retweet cascades). ARCHITECTURE.md "Paper
// section → package map" (row §6.1) places the substitution.
package gen

import (
	"math"
	"math/rand"

	"repro/internal/rmat"
	"repro/internal/stream"
)

// Config parametrizes a synthetic stream.
type Config struct {
	// Name labels the dataset in reports.
	Name string
	// Users is |U|, the user universe size.
	Users int
	// Actions is the stream length.
	Actions int
	// RootProb is the probability an action is a root post. Mean cascade
	// depth converges to (1−RootProb)/RootProb when response targets are
	// depth-unbiased.
	RootProb float64
	// MeanRespDist is the mean of the exponential response distance
	// Δ = t − t′ (clamped to valid targets).
	MeanRespDist float64
	// ActivityWeights, when non-nil, biases which user performs each
	// action (index = user ID, weight ≥ 0). Nil means uniform activity.
	ActivityWeights []int
	// ZipfSkew, when > 1 and ActivityWeights is nil, draws user activity
	// from a Zipf distribution with this exponent.
	ZipfSkew float64
	// Seed makes generation reproducible.
	Seed int64
}

// Stream materializes the action stream for cfg. Action IDs are 1..Actions.
func Stream(cfg Config) []stream.Action {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pick := userPicker(cfg, rng)
	actions := make([]stream.Action, cfg.Actions)
	for i := range actions {
		t := stream.ActionID(i + 1)
		a := stream.Action{ID: t, User: pick(), Parent: stream.NoParent}
		if i > 0 && rng.Float64() >= cfg.RootProb {
			d := int64(math.Ceil(rng.ExpFloat64() * cfg.MeanRespDist))
			if d < 1 {
				d = 1
			}
			if d > int64(i) {
				d = int64(rng.Intn(i) + 1)
			}
			a.Parent = t - stream.ActionID(d)
		}
		actions[i] = a
	}
	return actions
}

// userPicker builds the activity sampler: explicit weights, Zipf, or
// uniform.
func userPicker(cfg Config, rng *rand.Rand) func() stream.UserID {
	if len(cfg.ActivityWeights) > 0 {
		// Cumulative-weight sampling by binary search.
		cum := make([]int64, len(cfg.ActivityWeights))
		var total int64
		for i, w := range cfg.ActivityWeights {
			if w < 0 {
				w = 0
			}
			total += int64(w)
			cum[i] = total
		}
		if total == 0 {
			return func() stream.UserID { return stream.UserID(rng.Intn(len(cfg.ActivityWeights))) }
		}
		return func() stream.UserID {
			x := rng.Int63n(total)
			lo, hi := 0, len(cum)-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid] > x {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			return stream.UserID(lo)
		}
	}
	if cfg.ZipfSkew > 1 {
		z := rand.NewZipf(rng, cfg.ZipfSkew, 1, uint64(cfg.Users-1))
		return func() stream.UserID { return stream.UserID(z.Uint64()) }
	}
	return func() stream.UserID { return stream.UserID(rng.Intn(cfg.Users)) }
}

// Presets. window is the sliding-window size N the experiment will use;
// response-distance means scale with it exactly as the paper's absolute
// numbers relate to its default N = 500K (Table 3 vs Table 4).

// RedditLike models the Reddit comment dump: deep discussion trees
// (avg depth ≈ 4.6 via root probability 0.18) and long response distances
// (≈ 0.81·N, as 404,715 relates to N=500K).
func RedditLike(users, actions, window int, seed int64) Config {
	return Config{
		Name: "Reddit", Users: users, Actions: actions,
		RootProb: 0.18, MeanRespDist: 0.81 * float64(window),
		ZipfSkew: 1.3, Seed: seed,
	}
}

// TwitterLike models the Twitter crawl: shallow retweet cascades
// (avg depth ≈ 1.9 via root probability 0.35) and medium response distances
// (≈ 0.59·N, as 294,609 relates to N=500K).
func TwitterLike(users, actions, window int, seed int64) Config {
	return Config{
		Name: "Twitter", Users: users, Actions: actions,
		RootProb: 0.35, MeanRespDist: 0.59 * float64(window),
		ZipfSkew: 1.5, Seed: seed,
	}
}

// SynO is the paper's SYN-O: R-MAT activity, exponential response distances
// with mean equal to the window size ("old posts get more followers",
// λ = 2.0e−6 against N = 500K).
func SynO(users, actions, window int, seed int64) Config {
	return synthetic("SYN-O", users, actions, float64(window), seed)
}

// SynN is the paper's SYN-N: like SYN-O but with mean distance 0.01·N
// ("recent posts get more followers", λ = 2.0e−4 against N = 500K).
func SynN(users, actions, window int, seed int64) Config {
	return synthetic("SYN-N", users, actions, 0.01*float64(window), seed)
}

func synthetic(name string, users, actions int, mean float64, seed int64) Config {
	// Eight edges per user gives clearly skewed R-MAT degrees without
	// dominating generation time.
	edges := rmat.Generate(users, 8*users, rmat.Default, seed)
	deg := rmat.OutDegrees(users, edges)
	for i := range deg {
		deg[i]++ // every user stays minimally active
	}
	return Config{
		Name: name, Users: users, Actions: actions,
		RootProb: 0.3, MeanRespDist: mean,
		ActivityWeights: deg, Seed: seed,
	}
}
