package bestresponse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/view"
)

// maxExhaustive computes the exact MAXNCG best response by enumerating
// every subset of the view — the reference the MDS-based responder must
// match on small instances.
func maxExhaustive(s *game.State, u, k int, alpha float64) (float64, []int) {
	e := NewEvaluator()
	v := view.Extract(s.Graph(), u, k)
	var candidates []int
	for i, orig := range v.Orig {
		if i == v.Center || s.Buys(orig, u) {
			continue
		}
		candidates = append(candidates, orig)
	}
	best := game.InfiniteCost
	var bestSet []int
	for mask := 0; mask < 1<<len(candidates); mask++ {
		var cand []int
		for i, w := range candidates {
			if mask&(1<<i) != 0 {
				cand = append(cand, w)
			}
		}
		if cand == nil {
			cand = []int{}
		}
		c := e.MaxEvaluate(s, u, k, alpha, cand)
		if c < best-1e-12 {
			best = c
			bestSet = cand
		}
	}
	sort.Ints(bestSet)
	return best, bestSet
}

func TestMaxBestResponseStarLeaf(t *testing.T) {
	e := NewEvaluator()
	// Star with center 0; leaf 1 owns its edge. With full view and large α
	// the leaf keeps its single edge (dropping it disconnects her).
	s := game.NewState(6)
	for v := 1; v < 6; v++ {
		s.Buy(v, 0)
	}
	r := e.MaxBestResponse(s, 1, 10, 5)
	if r.Improving {
		t.Fatalf("star leaf found an 'improving' move: %+v", r)
	}
}

func TestMaxBestResponseCenterKeepsEmpty(t *testing.T) {
	e := NewEvaluator()
	s := game.NewState(5)
	for v := 1; v < 5; v++ {
		s.Buy(v, 0)
	}
	r := e.MaxBestResponse(s, 0, 3, 1)
	if r.Improving {
		t.Fatalf("star center should be at optimum, got %+v", r)
	}
	if r.CurrentCost != 1 {
		t.Fatalf("center current cost=%v, want 1", r.CurrentCost)
	}
}

func TestMaxBestResponsePathEndpointBuysCenter(t *testing.T) {
	e := NewEvaluator()
	// Path 0-1-2-3-4, all edges owned by the left endpoint. Player 0 with
	// full view and cheap α should buy towards the middle to cut her
	// eccentricity from 4.
	s := game.FromGraphLowOwners(gen.Path(5))
	r := e.MaxBestResponse(s, 0, 10, 0.5)
	if !r.Improving {
		t.Fatal("path endpoint with cheap edges should improve")
	}
	if r.Cost >= r.CurrentCost {
		t.Fatalf("cost=%v not below current=%v", r.Cost, r.CurrentCost)
	}
}

func TestMaxBestResponseCycleLemma31(t *testing.T) {
	e := NewEvaluator()
	// Lemma 3.1: cycle on n >= 2k+2 vertices, each player owns one edge,
	// is an LKE whenever α >= k-1. Check no player improves.
	n, k := 12, 3
	alpha := float64(k) // α = 3 > k-1 = 2
	s := game.NewState(n)
	for i := 0; i < n; i++ {
		s.Buy(i, (i+1)%n)
	}
	for u := 0; u < n; u++ {
		r := e.MaxBestResponse(s, u, k, alpha)
		if r.Improving {
			t.Fatalf("player %d improves on the Lemma 3.1 cycle: %+v", u, r)
		}
	}
}

func TestMaxBestResponseCycleSmallAlpha(t *testing.T) {
	e := NewEvaluator()
	// With α well below k-1 a cycle player benefits from a chord.
	n, k := 16, 5
	s := game.NewState(n)
	for i := 0; i < n; i++ {
		s.Buy(i, (i+1)%n)
	}
	improved := false
	for u := 0; u < n && !improved; u++ {
		improved = e.MaxBestResponse(s, u, k, 0.5).Improving
	}
	if !improved {
		t.Fatal("no cycle player improves at α=0.5, k=5")
	}
}

func TestMaxBestResponseMatchesExhaustive(t *testing.T) {
	e := NewEvaluator()
	f := func(seed int64, sz, kRaw, uRaw, aRaw uint8) bool {
		n := 4 + int(sz%8)
		k := 1 + int(kRaw%3)
		alpha := 0.25 + float64(aRaw%12)/4
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomTree(n, rng)
		for i := 0; i < n/4; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		s := game.FromGraphRandomOwners(g, rng)
		u := int(uRaw) % n
		r := e.MaxBestResponse(s, u, k, alpha)
		wantCost, _ := maxExhaustive(s, u, k, alpha)
		return math.Abs(r.Cost-wantCost) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxBestResponseNeverWorse(t *testing.T) {
	e := NewEvaluator()
	f := func(seed int64, sz, kRaw, uRaw uint8) bool {
		n := 4 + int(sz%15)
		k := 1 + int(kRaw%4)
		rng := rand.New(rand.NewSource(seed))
		s := game.FromGraphRandomOwners(gen.RandomTree(n, rng), rng)
		u := int(uRaw) % n
		r := e.MaxBestResponse(s, u, k, 1.0)
		return r.Cost <= r.CurrentCost+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxBestResponseAppliedCostDrops(t *testing.T) {
	e := NewEvaluator()
	// Applying an improving response must not raise the player's true
	// local cost (evaluated by MaxEvaluate on the pre-move view).
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(12)
		s := game.FromGraphRandomOwners(gen.RandomTree(n, rng), rng)
		u := rng.Intn(n)
		k := 2 + rng.Intn(3)
		alpha := []float64{0.3, 1, 2, 5}[rng.Intn(4)]
		r := e.MaxBestResponse(s, u, k, alpha)
		if !r.Improving {
			continue
		}
		got := e.MaxEvaluate(s, u, k, alpha, r.Strategy)
		if math.Abs(got-r.Cost) > 1e-9 {
			t.Fatalf("trial %d: MaxEvaluate=%v but responder claimed %v", trial, got, r.Cost)
		}
	}
}

func TestMaxEvaluateRejectsOutsideView(t *testing.T) {
	e := NewEvaluator()
	s := game.FromGraphLowOwners(gen.Path(10))
	// Player 0 with k=2 cannot target vertex 9.
	if c := e.MaxEvaluate(s, 0, 2, 1, []int{9}); c < game.InfiniteCost {
		t.Fatalf("strategy outside view evaluated to finite cost %v", c)
	}
}

func TestSumDeltaCurrentStrategyIsZero(t *testing.T) {
	e := NewEvaluator()
	rng := rand.New(rand.NewSource(5))
	s := game.FromGraphRandomOwners(gen.RandomTree(12, rng), rng)
	for u := 0; u < s.N(); u++ {
		if d := e.SumDelta(s, u, 3, 1.5, s.Strategy(u)); math.Abs(d) > 1e-9 {
			t.Fatalf("Δ(σ,σ)=%v for player %d, want 0", d, u)
		}
	}
}

func TestSumDeltaFrontierGuard(t *testing.T) {
	e := NewEvaluator()
	// Path 0-1-2-3-4; player 2 owns (2,3) and k=2, so vertices 0 and 4 are
	// frontier. Dropping (2,3) pushes 4 out of reach → +Inf.
	s := game.NewState(5)
	s.Buy(0, 1)
	s.Buy(1, 2)
	s.Buy(2, 3)
	s.Buy(3, 4)
	if d := e.SumDelta(s, 2, 2, 0.1, []int{}); d < game.InfiniteCost {
		t.Fatalf("frontier-increasing move got finite Δ=%v", d)
	}
}

func TestSumDeltaImprovingAddition(t *testing.T) {
	e := NewEvaluator()
	// Path 0-1-2-3-4, player 0, k=4 (full view), tiny α: buying towards 2
	// strictly shortens sums and no frontier exists beyond the view.
	s := game.FromGraphLowOwners(gen.Path(5))
	d := e.SumDelta(s, 0, 4, 0.1, []int{1, 2})
	if d >= 0 {
		t.Fatalf("Δ=%v, want negative (improvement)", d)
	}
}

func TestSumBestResponseExhaustiveStarStable(t *testing.T) {
	e := NewEvaluator()
	// Star, α in (1,2): leaves cannot improve (classic SUMNCG folklore —
	// the star is an equilibrium for α >= 1).
	s := game.NewState(6)
	for v := 1; v < 6; v++ {
		s.Buy(v, 0)
	}
	for u := 0; u < 6; u++ {
		r := e.SumBestResponseExhaustive(s, u, 2, 1.5, 12)
		if !r.Feasible {
			t.Fatalf("player %d: exhaustive search infeasible", u)
		}
		if r.Improving {
			t.Fatalf("player %d improves on the star: %+v", u, r)
		}
	}
}

func TestSumBestResponseExhaustiveFindsImprovement(t *testing.T) {
	e := NewEvaluator()
	// Long path, cheap edges, full knowledge: player 0 should improve.
	s := game.FromGraphLowOwners(gen.Path(8))
	r := e.SumBestResponseExhaustive(s, 0, 7, 0.5, 10)
	if !r.Feasible || !r.Improving {
		t.Fatalf("expected improvement, got %+v", r)
	}
	if r.Cost >= 0 {
		t.Fatalf("best Δ=%v, want negative", r.Cost)
	}
}

func TestSumBestResponseExhaustiveInfeasible(t *testing.T) {
	e := NewEvaluator()
	s := game.FromGraphLowOwners(gen.Complete(30))
	r := e.SumBestResponseExhaustive(s, 0, 2, 1, 10)
	if r.Feasible {
		t.Fatal("30-candidate view should exceed maxCandidates=10")
	}
}

func TestSumGreedyNeverHurts(t *testing.T) {
	e := NewEvaluator()
	f := func(seed int64, sz, kRaw, uRaw uint8) bool {
		n := 4 + int(sz%15)
		k := 1 + int(kRaw%4)
		rng := rand.New(rand.NewSource(seed))
		s := game.FromGraphRandomOwners(gen.RandomTree(n, rng), rng)
		u := int(uRaw) % n
		r := e.SumGreedyResponse(s, u, k, 1.0)
		if !r.Improving {
			return true
		}
		return e.SumDelta(s, u, k, 1.0, r.Strategy) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSumGreedyAgreesWithExhaustiveOnImprovability(t *testing.T) {
	e := NewEvaluator()
	// Greedy explores single moves; when exhaustive finds no improvement at
	// all, greedy must not either (its move set is a subset).
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(5)
		s := game.FromGraphRandomOwners(gen.RandomTree(n, rng), rng)
		u := rng.Intn(n)
		k := 2
		ex := e.SumBestResponseExhaustive(s, u, k, 2, 12)
		if !ex.Feasible {
			continue
		}
		gr := e.SumGreedyResponse(s, u, k, 2)
		if gr.Improving && !ex.Improving {
			t.Fatalf("trial %d: greedy improves but exhaustive does not", trial)
		}
	}
}
