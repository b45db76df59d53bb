package algorithms

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pregelix/internal/graphgen"
	"pregelix/internal/reference"
	"pregelix/pregel"
)

func TestDeltaPageRankMatchesClassic(t *testing.T) {
	// The residual formulation's fixed point must agree with the classic
	// pull formulation iterated to convergence, vertex by vertex.
	g := graphgen.BTC(300, 5, 7)
	delta := runRef(t, NewDeltaPageRankJob("dpr", "", "", 1e-12), g)
	classic := runRef(t, NewPageRankJob("pr", "", "", 80), g)
	for id, v := range classic.Vertices() {
		want := float64(*v.Value.(*pregel.Double))
		got := float64(*delta.Vertices()[id].Value.(*pregel.Double))
		if math.Abs(got-want) > 1e-8 {
			t.Fatalf("rank(%d) = %.12f, classic %.12f", id, got, want)
		}
	}
}

func TestDeltaPageRankMassConserved(t *testing.T) {
	g := graphgen.BTC(200, 6, 3) // undirected => no dangling vertices
	e := runRef(t, NewDeltaPageRankJob("dpr", "", "", 1e-12), g)
	sum := 0.0
	for _, v := range e.Vertices() {
		sum += float64(*v.Value.(*pregel.Double))
	}
	if math.Abs(sum-1.0) > 1e-6 {
		t.Fatalf("rank mass %f, want 1.0", sum)
	}
}

// TestDeltaPageRankEpsilonConfig: the epsilon the job's configuration
// names is the one the run stops at, and a malformed one fails the job
// with the key's name.
func TestDeltaPageRankEpsilonConfig(t *testing.T) {
	g := graphgen.BTC(200, 6, 3)
	coarse := NewDeltaPageRankJob("dpr", "", "", 1e-12)
	coarse.Config[DeltaPageRankEpsilonKey] = "1e-3"
	fine, loose := runRef(t, NewDeltaPageRankJob("dpr", "", "", 1e-12), g), runRef(t, coarse, g)
	if loose.Supersteps() >= fine.Supersteps() {
		t.Fatalf("epsilon 1e-3 ran %d supersteps, 1e-12 ran %d", loose.Supersteps(), fine.Supersteps())
	}
	bad := NewDeltaPageRankJob("dpr", "", "", 0)
	bad.Config[DeltaPageRankEpsilonKey] = "one-in-a-billion"
	_, err := reference.NewFromGraph(bad, g).Run(0)
	if err == nil || !strings.Contains(err.Error(), "algorithms: bad "+DeltaPageRankEpsilonKey) {
		t.Fatalf("a malformed epsilon ran: %v", err)
	}
}

// kCoreOracle peels vertices of degree < k until a fixed point, the
// textbook sequential k-core algorithm.
func kCoreOracle(g *graphgen.Graph, k int) map[uint64]bool {
	in := map[uint64]bool{}
	for id := range g.Adj {
		in[id] = true
	}
	for changed := true; changed; {
		changed = false
		for id := range g.Adj {
			if !in[id] {
				continue
			}
			deg := 0
			for _, d := range g.Adj[id] {
				if in[d] && d != id {
					deg++
				}
			}
			if deg < k {
				in[id] = false
				changed = true
			}
		}
	}
	return in
}

func kCoreMember(v *pregel.Vertex) bool {
	for _, id := range *v.Value.(*pregel.VIDList) {
		if id == uint64(v.ID) {
			return false
		}
	}
	return true
}

func TestKCoreAgainstPeelingOracle(t *testing.T) {
	check := func(seed int64) bool {
		for _, k := range []int{2, 3, 4} {
			g := graphgen.BTC(150, 5, seed)
			e := runRef(t, NewKCoreJob("kcore", "", "", k), g)
			want := kCoreOracle(g, k)
			for id, v := range e.Vertices() {
				if kCoreMember(v) != want[id] {
					t.Fatalf("seed %d k=%d: vertex %d in-core=%v, oracle %v",
						seed, k, id, kCoreMember(v), want[id])
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestVIDListConcatCombiner(t *testing.T) {
	a := pregel.VIDList{1, 2}
	b := pregel.VIDList{3}
	got := VIDListConcatCombiner().Combine(&a, &b)
	l := *got.(*pregel.VIDList)
	if len(l) != 3 || l[0] != 1 || l[2] != 3 {
		t.Fatalf("combined: %v", l)
	}
}
