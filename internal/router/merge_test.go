package router_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/api"
	"repro/internal/greedy"
	"repro/internal/router"
	"repro/internal/server"
	"repro/sim"
)

// unionGreedy is the reference the router's merged /seeds must reproduce:
// one lazy-greedy pass (greedy.SelectSets) over the union of the full
// candidate pools fetched from the shards themselves — the computation the
// router used to run, with every influence set on the wire.
func unionGreedy(t *testing.T, shardURLs []string, k int) ([]sim.UserID, float64) {
	t.Helper()
	sets := map[sim.UserID][]sim.UserID{}
	for _, u := range shardURLs {
		resp, err := api.NewClient(u).Candidates(context.Background(), "default")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range resp.Candidates {
			sets[c.User] = c.Influenced
		}
	}
	return greedy.SelectSets(sets, k, nil)
}

// TestClusterSeedsMergeIdentity: shards rank, the router merges, and the
// result is the greedy selection over the union of the shards' pools — the
// same seeds in the same order, the same value. It rests on shard influence
// universes being disjoint (a pick on one shard moves no gain on another)
// and on each shard's ranking being ordered by (gain descending, user
// ascending), the order SelectSets picks in.
func TestClusterSeedsMergeIdentity(t *testing.T) {
	for _, ds := range clusterDatasets() {
		for _, fw := range []sim.Framework{sim.SIC, sim.IC} {
			for _, shards := range []int{2, 4} {
				t.Run(fmt.Sprintf("%s/%v/shards=%d", ds.name, fw, shards), func(t *testing.T) {
					spec := clusterSpec(fw)
					c := newCluster(t, shards, spec)
					ingestAll(t, c.client, ds.actions, 500)
					got, err := c.client.Seeds(context.Background(), "default")
					if err != nil {
						t.Fatal(err)
					}
					wantSeeds, wantValue := unionGreedy(t, c.router.Shards(), spec.K)
					if len(wantSeeds) == 0 {
						t.Fatal("reference selected nothing")
					}
					if !reflect.DeepEqual(got.Seeds, wantSeeds) || got.Value != wantValue {
						t.Errorf("merged /seeds = %v (value %v), greedy over the union of the pools = %v (value %v)",
							got.Seeds, got.Value, wantSeeds, wantValue)
					}
					if got.Partial || got.Processed != int64(len(ds.actions)) {
						t.Errorf("merged /seeds: partial=%v processed=%d", got.Partial, got.Processed)
					}
				})
			}
		}
	}
}

// TestClusterSeedsMergePartial: with a shard down the merge runs over the
// rankings of the shards that answered, flagged partial.
func TestClusterSeedsMergePartial(t *testing.T) {
	ds := clusterDatasets("Twitter")[0]
	spec := clusterSpec(sim.SIC)
	var shardURLs []string
	for i := 0; i < 3; i++ {
		reg := server.NewRegistry()
		if _, err := reg.Add("default", spec); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(reg))
		t.Cleanup(ts.Close)
		t.Cleanup(func() { _ = reg.Close() })
		shardURLs = append(shardURLs, ts.URL)
	}
	px := newProxy(t, shardURLs[0])
	addrs := append([]string{"http://" + px.addr}, shardURLs[1:]...)
	router.SetProbeInterval(t, time.Hour)
	rt, err := router.New(addrs, router.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	client := api.NewClient(front.URL)
	ingestAll(t, client, ds.actions, 500)

	px.stop()
	got, err := client.Seeds(context.Background(), "default")
	if err != nil {
		t.Fatal(err)
	}
	wantSeeds, wantValue := unionGreedy(t, shardURLs[1:], spec.K)
	if !got.Partial {
		t.Error("merged /seeds not flagged partial with shard 0 down")
	}
	if len(wantSeeds) == 0 || !reflect.DeepEqual(got.Seeds, wantSeeds) || got.Value != wantValue {
		t.Errorf("partial /seeds = %v (value %v), greedy over the live shards' pools = %v (value %v)",
			got.Seeds, got.Value, wantSeeds, wantValue)
	}
	allSeeds, allValue := unionGreedy(t, shardURLs, spec.K)
	if reflect.DeepEqual(allSeeds, wantSeeds) && allValue == wantValue {
		t.Error("the dead shard contributed nothing to the full selection: the row proves nothing")
	}
}

// TestClusterSeedsMergeNameMode: name-mode shards number their users
// independently, so the merge cannot break a tie between shards on user ID.
// It breaks it on shard index (within a shard the ranking's own order
// stands), and the result is the greedy selection over the union of the
// pools with candidates numbered in that order. This is the one place the
// merged answer may differ from the union map the router used to build,
// which numbered users in the order its intern table met their names — an
// accident of response order; value and names are otherwise as before.
func TestClusterSeedsMergeNameMode(t *testing.T) {
	ds := clusterDatasets("SYN-O")[0]
	spec := clusterSpec(sim.SIC)
	spec.Names = true
	c := newCluster(t, 3, spec)
	ctx := context.Background()
	named := make([]api.NamedAction, len(ds.actions))
	for i, a := range ds.actions {
		named[i] = api.NamedAction{ID: a.ID, User: fmt.Sprintf("user-%d", a.User), Parent: a.Parent}
	}
	if _, err := c.client.IngestNamed(ctx, "default", named); err != nil {
		t.Fatal(err)
	}

	// Number every candidate in (shard index, shard order) first, then the
	// other influenced users as they come: SelectSets breaks ties on the
	// lower number, which is then exactly the merge's rule.
	ids := map[string]sim.UserID{}
	var names []string
	id := func(name string) sim.UserID {
		u, ok := ids[name]
		if !ok {
			u = sim.UserID(len(names))
			ids[name], names = u, append(names, name)
		}
		return u
	}
	var pools []api.CandidatesResponse
	for _, u := range c.router.Shards() {
		resp, err := api.NewClient(u).Candidates(ctx, "default")
		if err != nil {
			t.Fatal(err)
		}
		for _, cand := range resp.Candidates {
			id(cand.Name)
		}
		pools = append(pools, resp)
	}
	sets := map[sim.UserID][]sim.UserID{}
	for _, resp := range pools {
		for _, cand := range resp.Candidates {
			set := make([]sim.UserID, len(cand.InfluencedNames))
			for i, name := range cand.InfluencedNames {
				set[i] = id(name)
			}
			sets[id(cand.Name)] = set
		}
	}
	wantSeeds, wantValue := greedy.SelectSets(sets, spec.K, nil)
	wantNames := make([]string, len(wantSeeds))
	for i, u := range wantSeeds {
		wantNames[i] = names[u]
	}

	got, err := c.client.Seeds(ctx, "default")
	if err != nil {
		t.Fatal(err)
	}
	if len(wantNames) == 0 || !reflect.DeepEqual(got.Names, wantNames) || got.Value != wantValue {
		t.Errorf("name-mode /seeds = %v (value %v), greedy over the union of the pools = %v (value %v)",
			got.Names, got.Value, wantNames, wantValue)
	}
	if len(got.Seeds) != len(got.Names) {
		t.Errorf("%d seeds for %d names", len(got.Seeds), len(got.Names))
	}
}
