package sim_test

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/gen"
	"repro/sim"
)

// ExampleNew feeds the paper's running example (Figure 1) one action at a
// time and prints the top-2 influencers over a window of N = 8 actions
// after each one; then who acted under u3's impact in the final window.
func ExampleNew() {
	tracker, err := sim.New(sim.Config{K: 2, WindowSize: 8})
	if err != nil {
		panic(err)
	}
	// <user, parent>_time: a2 is u2 replying to u1's post a1, and so on.
	actions := []sim.Action{
		{ID: 1, User: 1, Parent: sim.NoParent},
		{ID: 2, User: 2, Parent: 1},
		{ID: 3, User: 3, Parent: sim.NoParent},
		{ID: 4, User: 3, Parent: 1},
		{ID: 5, User: 4, Parent: 3},
		{ID: 6, User: 1, Parent: 3},
		{ID: 7, User: 5, Parent: 3},
		{ID: 8, User: 4, Parent: 7},
		{ID: 9, User: 2, Parent: sim.NoParent},
		{ID: 10, User: 6, Parent: 9},
	}
	for _, a := range actions {
		if err := tracker.Process(a); err != nil {
			panic(err)
		}
		fmt.Printf("%v seeds=%v value=%.0f\n", a, tracker.Seeds(), tracker.Value())
	}
	fmt.Printf("I(u3)=%v, window starts at a%d\n", tracker.InfluenceSet(3), tracker.WindowStart())
	// Output:
	// <u1, nil>_1 seeds=[1] value=1
	// <u2, a1>_2 seeds=[1 2] value=2
	// <u3, nil>_3 seeds=[1 3] value=3
	// <u3, a1>_4 seeds=[1 3] value=3
	// <u4, a3>_5 seeds=[1 3] value=4
	// <u1, a3>_6 seeds=[1 3] value=4
	// <u5, a3>_7 seeds=[1 3] value=5
	// <u4, a7>_8 seeds=[1 3] value=5
	// <u2, nil>_9 seeds=[3 2] value=5
	// <u6, a9>_10 seeds=[3 2] value=5
	// I(u3)=[4 5 1 3], window starts at a3
}

// ExampleConfig_filter is the topic-aware adaptation of Appendix A: one
// stream carries two topics, and each tracker's filter keeps its own
// topic's sub-stream, so the two find influencers in disjoint communities.
func ExampleConfig_filter() {
	// The topic oracle: a user's community (here the parity of the user
	// ID) decides the topic.
	topicOf := func(a sim.Action) string {
		if a.User%2 == 0 {
			return "sports"
		}
		return "politics"
	}
	stream := gen.Stream(gen.RedditLike(1500, 6000, 2000, 7))
	var seeds [][]sim.UserID
	for _, topic := range []string{"sports", "politics"} {
		tracker, err := sim.New(sim.Config{
			K: 3, WindowSize: 2000, Slide: 20,
			Filter: func(a sim.Action) bool { return topicOf(a) == topic },
		})
		if err != nil {
			panic(err)
		}
		if err := tracker.ProcessAll(stream); err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d actions, seeds=%v value=%.0f\n",
			topic, tracker.Processed(), tracker.Seeds(), tracker.Value())
		seeds = append(seeds, tracker.Seeds())
	}
	disjoint := !slices.ContainsFunc(seeds[0], func(u sim.UserID) bool { return slices.Contains(seeds[1], u) })
	fmt.Println("disjoint:", disjoint)
	// Output:
	// sports: 3590 actions, seeds=[0 274 32] value=63
	// politics: 2410 actions, seeds=[1 7 5] value=40
	// disjoint: true
}

// verified is the conformity-aware objective of Appendix A as a weighted
// coverage function: a verified account (here every 13th user) counts five
// times as an audience.
type verified struct{}

func (verified) Weight(u sim.UserID) float64 {
	if u%13 == 0 {
		return 5
	}
	return 1
}

// ExampleConfig_weights is the paper's viral-marketing scenario: a
// campaign is seeded with the users influential right now on a Twitter-like
// stream, and the seed set turns over as the window slides. A second
// tracker weighs the audience, so covering verified accounts counts more.
func ExampleConfig_weights() {
	plain, err := sim.New(sim.Config{K: 5, WindowSize: 1000, Slide: 10})
	if err != nil {
		panic(err)
	}
	weighted, err := sim.New(sim.Config{K: 5, WindowSize: 1000, Slide: 10, Weights: verified{}})
	if err != nil {
		panic(err)
	}
	stream := gen.Stream(gen.TwitterLike(1000, 4000, 1000, 42))
	var prev []sim.UserID
	for i := 0; i < len(stream); i += 1000 {
		chunk := stream[i : i+1000]
		if err := plain.ProcessAll(chunk); err != nil {
			panic(err)
		}
		if err := weighted.ProcessAll(chunk); err != nil {
			panic(err)
		}
		seeds := plain.Seeds()
		turnover := 0
		for _, s := range seeds {
			if prev != nil && !slices.Contains(prev, s) {
				turnover++
			}
		}
		prev = slices.Clone(seeds) // Seeds is valid only until the next Process
		fmt.Printf("t=%d seeds=%v value=%.0f turnover=%d\n", chunk[len(chunk)-1].ID, seeds, plain.Value(), turnover)
	}
	fmt.Printf("weighted seeds=%v value=%.0f\n", weighted.Seeds(), weighted.Value())
	// Output:
	// t=1000 seeds=[3 0 1 2 7] value=73 turnover=0
	// t=2000 seeds=[0 3 1 2 185] value=81 turnover=1
	// t=3000 seeds=[0 1 2 3 329] value=74 turnover=1
	// t=4000 seeds=[0 1 5 3 440] value=65 turnover=2
	// weighted seeds=[0 1 182 3 52] value=94
}

// Example_outbreakDetection is outbreak detection on a sliding window: a
// quiet account starts a cascade among background chatter, surfaces among
// the seeds while the cascade is in the window, and ages out once it has
// scrolled past — a static method would keep reporting it.
func Example_outbreakDetection() {
	const burstUser, window = 9999, 500
	tracker, err := sim.New(sim.Config{K: 3, WindowSize: window, Slide: 10})
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(3))
	id := sim.ActionID(0)
	emit := func(user sim.UserID, parent sim.ActionID) {
		id++
		if err := tracker.Process(sim.Action{ID: id, User: user, Parent: parent}); err != nil {
			panic(err)
		}
	}
	// Background chatter: many small, unrelated conversations.
	chatter := func(n int) {
		for range n {
			parent := sim.NoParent
			if id > 0 && rng.Float64() < 0.6 {
				parent = id - sim.ActionID(rng.Intn(min(int(id), 50)))
			}
			emit(sim.UserID(rng.Intn(500)), parent)
		}
	}
	report := func(phase string) {
		seeds := tracker.Seeds()
		fmt.Printf("%s: seeds=%v burst user among them: %v\n", phase, seeds, slices.Contains(seeds, burstUser))
	}

	chatter(3 * window)
	report("before")
	// The burst: one post, answered by 100 distinct users amid the chatter.
	emit(burstUser, sim.NoParent)
	root := id
	for i := range 100 {
		emit(sim.UserID(1000+i), root)
		chatter(3)
	}
	report("during")
	fmt.Printf("I(u%d) reaches %d users\n", burstUser, len(tracker.InfluenceSet(burstUser)))
	chatter(2 * window)
	report("after")
	// Output:
	// before: seeds=[374 330 169] burst user among them: false
	// during: seeds=[9999 201 285] burst user among them: true
	// I(u9999) reaches 159 users
	// after: seeds=[273 126 194] burst user among them: false
}
