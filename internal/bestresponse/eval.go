package bestresponse

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/mds"
	"repro/internal/view"
)

// Evaluator computes every response rule of the package and owns the
// reusable buffers for computing many of them — the view workspace, the
// candidate filters, and the MAXNCG all-pairs/bitset machinery — so a
// sweep's allocations are O(workers) instead of O(moves).
//
// An Evaluator is not safe for concurrent use: give each worker its own.
type Evaluator struct {
	ws view.Workspace

	// fixed lists the locals whose center edge exists under every
	// candidate strategy: view vertices that bought an edge towards the
	// player (removing it is not the player's move).
	fixed []int32
	// flags marks locals excluded from greedy candidate loops.
	flags []uint8
	// curLoc holds the locals of the current strategy targets.
	curLoc []int32
	// edges is the scratch center-edge list handed to ResetBase.
	edges []int32
	// cand holds the exhaustive search's candidate locals.
	cand []int32

	// MAXNCG machinery: all-pairs distances over the center-less view,
	// one flat bitset slab for the h-power closed neighborhoods, and the
	// forced-dominator list.
	restDist []int32
	row      []int32
	slab     []uint64
	nbs      [][]uint64
	forced   []int
}

const (
	flagCurrent uint8 = 1 << iota // local is a current strategy target
	flagBuysIn                    // local bought an edge towards the player
)

// NewEvaluator returns an empty Evaluator; buffers grow on first use.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// prepare extracts u's view into the workspace and classifies the
// center's incident edges.
func (e *Evaluator) prepare(s *game.State, u, k int) {
	e.ws.Extract(s.Graph(), u, k)
	e.fixed = e.fixed[:0]
	for _, l := range e.ws.CenterAdj {
		if s.Buys(int(e.ws.Orig[l]), u) {
			e.fixed = append(e.fixed, l)
		}
	}
}

// SumDelta evaluates the paper's worst-case cost difference Δ(σ_u, σ'_u)
// for SUMNCG (Prop. 2.2), relative to the current strategy:
//
//   - if the candidate strategy pushes any frontier vertex (distance
//     exactly k in H) beyond distance k in the modified view H', the
//     worst case is unbounded and the move can never improve → +Inf;
//   - otherwise Δ = α(|σ'|-|σ|) + Σ_{v: d_H(u,v)<k} (d_{H'}(u,v) - d_H(u,v)),
//     attained at G = H.
//
// A strategy is improving exactly when SumDelta < 0.
func (e *Evaluator) SumDelta(s *game.State, u, k int, alpha float64, strategy []int) float64 {
	e.prepare(s, u, k)
	e.edges = append(e.edges[:0], e.fixed...)
	for _, w := range strategy {
		l := e.ws.LocalOf(w)
		if l < 0 {
			return game.InfiniteCost // outside the local strategy space
		}
		e.edges = append(e.edges, int32(l))
	}
	e.ws.ResetBase(e.edges)
	sum, ok := e.ws.InnerSum()
	if !ok {
		return game.InfiniteCost
	}
	return alpha*float64(len(strategy)-s.BoughtCount(u)) + float64(sum-e.ws.InnerBase())
}

// SumBestResponseExhaustive computes an exact SUMNCG best response over
// the view by subset enumeration, honoring the frontier guard. The
// candidate set excludes u and vertices that bought edges towards u (edges
// that exist for free). maxCandidates bounds the enumeration (2^c
// evaluations).
func (e *Evaluator) SumBestResponseExhaustive(s *game.State, u, k int, alpha float64, maxCandidates int) SumExhaustiveResult {
	e.prepare(s, u, k)
	b := e.ws.Size()
	e.cand = e.cand[:0]
	for l := 1; l < b; l++ {
		if s.Buys(int(e.ws.Orig[l]), u) {
			continue
		}
		e.cand = append(e.cand, int32(l))
	}
	if len(e.cand) > maxCandidates {
		return SumExhaustiveResult{Feasible: false}
	}
	bought := s.BoughtCount(u)
	e.ws.ResetBase(e.fixed)
	bestDelta := 0.0
	bestMask := -1
	improving := false
	for mask := 0; mask < 1<<len(e.cand); mask++ {
		e.edges = e.edges[:0]
		for i, l := range e.cand {
			if mask&(1<<i) != 0 {
				e.edges = append(e.edges, l)
			}
		}
		mark := e.ws.Mark()
		e.ws.AddEdgesRelax(e.edges)
		d := game.InfiniteCost
		if sum, ok := e.ws.InnerSum(); ok {
			d = alpha*float64(len(e.edges)-bought) + float64(sum-e.ws.InnerBase())
		}
		e.ws.Undo(mark)
		if d < bestDelta-epsilon {
			bestDelta = d
			bestMask = mask
			improving = true
		}
	}
	var bestStrategy []int
	if bestMask < 0 {
		bestStrategy = s.Strategy(u) // already sorted
	} else {
		bestStrategy = make([]int, 0, bits.OnesCount(uint(bestMask)))
		for i, l := range e.cand {
			if bestMask&(1<<i) != 0 {
				bestStrategy = append(bestStrategy, int(e.ws.Orig[l]))
			}
		}
		sort.Ints(bestStrategy)
	}
	return SumExhaustiveResult{
		Response: Response{
			Strategy:    bestStrategy,
			Cost:        bestDelta,
			CurrentCost: 0,
			Improving:   improving,
		},
		Feasible: true,
	}
}

// SumResponse is the SUMNCG responder the dynamics run: the exact subset
// search when the view has at most maxCandidates candidates, otherwise
// the greedy better response (the paper limited its experiments to
// MAXNCG because the exact SUMNCG response is exponential; see §5).
func (e *Evaluator) SumResponse(s *game.State, u, k int, alpha float64, maxCandidates int) Response {
	if ex := e.SumBestResponseExhaustive(s, u, k, alpha, maxCandidates); ex.Feasible {
		return ex.Response
	}
	return e.SumGreedyResponse(s, u, k, alpha)
}

// MaxBestResponse computes an exact best response for player u in MAXNCG
// with view radius k and edge price alpha, following §5.3:
//
//  1. extract the view H = G[β(u,k)];
//  2. remove u; vertices that bought an edge towards u stay adjacent to u
//     in every strategy, so they are "forced" dominators;
//  3. for every target eccentricity h, a strategy achieving eccentricity
//     <= h is exactly a dominating set of the (h-1)-th power of H∖{u}
//     extending the forced set; minimize α·|extra| + h over h.
//
// The returned strategy never buys edges already bought towards u (they
// would be pure waste) and is exact: no strategy over the view has lower
// cost.
func (e *Evaluator) MaxBestResponse(s *game.State, u, k int, alpha float64) Response {
	e.prepare(s, u, k)
	cur := alpha*float64(s.BoughtCount(u)) + float64(e.ws.ViewEcc())
	rB := e.ws.Size() - 1 // the center-less view H∖{u}; rest j = local j+1
	if rB == 0 {
		// Lone player: buying nothing is the unique (vacuous) strategy.
		return Response{Strategy: []int{}, Cost: 0, CurrentCost: cur, Improving: cur > epsilon}
	}

	// Forced dominators: view vertices that bought an edge towards u.
	e.forced = e.forced[:0]
	for j := 0; j < rB; j++ {
		if s.Buys(int(e.ws.Orig[j+1]), u) {
			e.forced = append(e.forced, j)
		}
	}

	// All-pairs distances over H∖{u}, computed once: the ball CSR already
	// excludes the center, so a plain BFS per vertex is exactly the
	// center-less metric the h-power dominating-set reduction needs.
	if cap(e.restDist) < rB*rB {
		e.restDist = make([]int32, rB*rB)
	}
	e.restDist = e.restDist[:rB*rB]
	if cap(e.row) < rB+1 {
		e.row = make([]int32, rB+1)
	}
	e.row = e.row[:rB+1]
	for j := 0; j < rB; j++ {
		e.ws.BallDistFrom(int32(j+1), e.row)
		copy(e.restDist[j*rB:(j+1)*rB], e.row[1:])
	}

	maxH := 2*k + 1
	if maxH > rB {
		maxH = rB
	}
	if maxH < 1 {
		maxH = 1
	}
	words := (rB + 63) / 64
	if cap(e.slab) < rB*words {
		e.slab = make([]uint64, rB*words)
	}
	e.slab = e.slab[:rB*words]
	if cap(e.nbs) < rB {
		e.nbs = make([][]uint64, rB)
	}
	e.nbs = e.nbs[:rB]
	for j := range e.nbs {
		e.nbs[j] = e.slab[j*words : (j+1)*words]
	}

	// Descending h with the incumbent cap, exactly like the reference:
	// identical neighborhoods feed an identical branch-and-bound.
	bestCost := cur
	var bestSet []int
	improved := false
	for h := maxH; h >= 1; h-- {
		if float64(h) >= bestCost-epsilon {
			continue // cost >= h can no longer improve on the incumbent
		}
		limit := rB + 1
		if alpha > 0 {
			useful := (bestCost - float64(h)) / alpha
			if c := int(math.Ceil(useful)); c < limit {
				limit = c
			}
		}
		// Closed neighborhoods of the (h-1)-th power: {i : d(j,i) <= h-1}.
		for i := range e.slab {
			e.slab[i] = 0
		}
		hh := int32(h - 1)
		for j := 0; j < rB; j++ {
			row := e.restDist[j*rB : (j+1)*rB]
			nb := e.nbs[j]
			for i, d := range row {
				if d <= hh {
					nb[i/64] |= 1 << (i % 64)
				}
			}
		}
		extra, ok := mds.MinDominatingExtraAtMostBitsets(rB, e.nbs, e.forced, limit)
		if !ok {
			continue
		}
		cost := alpha*float64(len(extra)) + float64(h)
		if cost < bestCost-epsilon {
			bestCost = cost
			bestSet = extra
			improved = true
		}
	}

	if !improved {
		return Response{
			Strategy:    s.Strategy(u),
			Cost:        cur,
			CurrentCost: cur,
			Improving:   false,
		}
	}
	strategy := make([]int, 0, len(bestSet))
	for _, j := range bestSet {
		strategy = append(strategy, int(e.ws.Orig[j+1]))
	}
	sort.Ints(strategy)
	return Response{
		Strategy:    strategy,
		Cost:        bestCost,
		CurrentCost: cur,
		Improving:   true,
	}
}

// MaxEvaluate computes the view-restricted MAXNCG cost of an arbitrary
// candidate strategy (global ids, all inside u's view): α·|σ'| plus the
// eccentricity of u in the modified view H'. Used by tests and by the LKE
// auditor to cross-check responder outputs against exhaustive search.
func (e *Evaluator) MaxEvaluate(s *game.State, u, k int, alpha float64, strategy []int) float64 {
	e.prepare(s, u, k)
	e.edges = append(e.edges[:0], e.fixed...)
	for _, w := range strategy {
		l := e.ws.LocalOf(w)
		if l < 0 {
			return game.InfiniteCost // outside the strategy space
		}
		e.edges = append(e.edges, int32(l))
	}
	e.ws.ResetBase(e.edges)
	ecc := e.ws.EccAll()
	if ecc >= graph.Unreachable {
		return game.InfiniteCost
	}
	return alpha*float64(len(strategy)) + float64(ecc)
}
