package bestresponse

import (
	"sort"

	"repro/internal/game"
	"repro/internal/graph"
)

// The greedy better response and the large-neighborhood response are one
// algorithm: best-improvement descent over the shift (add/drop) and
// exchange (swap) move set, scored INSIDE the view extracted once at
// decision time. Greedy commits to the single best move (one step); the
// large-neighborhood response à la Sokol et al.'s BAP heuristics
// (PAPERS.md) keeps descending for up to maxDescentSteps moves — a
// compound deviation explored heuristically rather than by enumerating
// the exponential strategy space. Each step keeps the earliest best
// candidate under the strict epsilon tie-break, so the descent is
// deterministic, and it reads only the player's k-ball view plus the
// arcs bought towards her, so event-driven activation stays sound.

// maxDescentSteps caps the large-neighborhood descent depth. Each step
// strictly improves the (bounded-below) cost by more than epsilon so
// termination needs no cap in principle; the cap keeps the worst case
// predictable and is part of the response's definition — the test-only
// reference shares it.
const maxDescentSteps = 64

// SumGreedyResponse looks for an improving move among single-edge
// additions, single-edge removals, and single swaps (remove one bought
// edge, add one new edge). It returns the best such move — a
// "better response" in the paper's terminology — or Improving=false when
// no local move helps. This keeps SUMNCG dynamics runnable at sizes where
// the exact responder is infeasible (the paper itself limited experiments
// to MAXNCG for exactly this reason; see §5). Cost is the Δ of the
// returned strategy relative to the current one (negative = gain).
func (e *Evaluator) SumGreedyResponse(s *game.State, u, k int, alpha float64) Response {
	return e.descend(s, u, k, alpha, game.Sum, 1)
}

// MaxGreedyResponse looks for an improving MAXNCG move among single-edge
// additions, removals, and swaps — a "better response" in the paper's §2
// terminology (the divergence results of Kawald–Lenzner concern exactly
// better-response dynamics). It evaluates candidates with the same
// view-restricted worst-case rule as the exact responder (Prop. 2.1) and
// returns the best single-move improvement, or Improving=false. Costs are
// absolute view costs.
func (e *Evaluator) MaxGreedyResponse(s *game.State, u, k int, alpha float64) Response {
	return e.descend(s, u, k, alpha, game.Max, 1)
}

// SumLargeNeighborhoodResponse runs shift/exchange best-improvement
// descent for the SUM objective. Cost is the Δ of the final strategy
// relative to the current one, like SumGreedyResponse.
func (e *Evaluator) SumLargeNeighborhoodResponse(s *game.State, u, k int, alpha float64) Response {
	return e.descend(s, u, k, alpha, game.Sum, maxDescentSteps)
}

// MaxLargeNeighborhoodResponse runs shift/exchange best-improvement
// descent for the MAX objective. Costs are absolute view costs, like
// MaxGreedyResponse.
func (e *Evaluator) MaxLargeNeighborhoodResponse(s *game.State, u, k int, alpha float64) Response {
	return e.descend(s, u, k, alpha, game.Max, maxDescentSteps)
}

// descend runs up to steps single-move descent steps from u's current
// strategy. The variant picks only the score of a candidate and the
// starting cost: SUM scores are Δ relative to the current strategy
// (Prop. 2.2, so the start is 0), MAX scores are absolute view costs
// (Prop. 2.1).
func (e *Evaluator) descend(s *game.State, u, k int, alpha float64, variant game.Variant, steps int) Response {
	current := s.Strategy(u)
	e.prepare(s, u, k)
	bought := s.BoughtCount(u)
	var start float64
	var score func(candLen int) float64
	if variant == game.Sum {
		score = func(candLen int) float64 {
			sum, ok := e.ws.InnerSum()
			if !ok {
				return game.InfiniteCost
			}
			return alpha*float64(candLen-bought) + float64(sum-e.ws.InnerBase())
		}
	} else {
		start = alpha*float64(bought) + float64(e.ws.ViewEcc())
		score = func(candLen int) float64 {
			ecc := e.ws.EccAll()
			if ecc >= graph.Unreachable {
				return game.InfiniteCost
			}
			return alpha*float64(candLen) + float64(ecc)
		}
	}
	working, best, n := current, start, 0
	if k == 0 && len(current) > 0 {
		// The radius-zero view is {u}: every current target lies outside
		// it, so any candidate keeping one is infeasible. The only
		// possible move drops a sole owned edge (SUM: Δ = -α; MAX: cost 0
		// against α·bought).
		if len(current) == 1 {
			e.ws.ResetBase(e.fixed)
			if d := score(0); d < start-epsilon {
				working, best, n = nil, d, 1
			}
		}
	} else {
		for ; n < steps; n++ {
			d, m, improving := e.greedyScan(working, best, score)
			if !improving {
				break
			}
			working, best = e.materialize(working, m), d
		}
	}
	if n == 0 {
		working = append([]int(nil), current...)
	}
	return Response{Strategy: working, Cost: best, CurrentCost: start, Improving: n > 0}
}

// markCandidates fills flags and curLoc for a greedy scan over the
// current strategy; greedyScan clears them with clearFlags, so flags is
// all-zero between scans.
func (e *Evaluator) markCandidates(current []int) {
	if b := e.ws.Size(); cap(e.flags) < b {
		e.flags = make([]uint8, b)
	} else {
		e.flags = e.flags[:b]
	}
	for _, l := range e.fixed {
		e.flags[l] |= flagBuysIn
	}
	e.curLoc = e.curLoc[:0]
	for _, w := range current {
		// For k >= 1 strategy targets sit at distance 1, inside the view.
		l := int32(e.ws.LocalOf(w))
		e.curLoc = append(e.curLoc, l)
		e.flags[l] |= flagCurrent
	}
}

func (e *Evaluator) clearFlags() {
	for _, l := range e.fixed {
		e.flags[l] = 0
	}
	for _, l := range e.curLoc {
		e.flags[l] = 0
	}
}

// baseWithout fills e.edges with fixed ∪ curLoc minus curLoc[i].
func (e *Evaluator) baseWithout(i int) {
	e.edges = append(e.edges[:0], e.fixed...)
	e.edges = append(e.edges, e.curLoc[:i]...)
	e.edges = append(e.edges, e.curLoc[i+1:]...)
}

// move identifies the best greedy move found so far.
type move struct {
	kind int // 0 none, 1 add, 2 remove, 3 swap
	i    int // index into current (remove/swap)
	l    int32
}

// materialize turns an improving move into a fresh sorted global strategy.
func (e *Evaluator) materialize(current []int, m move) []int {
	switch m.kind {
	case 1: // add
		out := make([]int, 0, len(current)+1)
		out = append(out, current...)
		out = append(out, int(e.ws.Orig[m.l]))
		sort.Ints(out)
		return out
	case 2: // remove
		out := make([]int, 0, len(current)-1)
		out = append(out, current[:m.i]...)
		out = append(out, current[m.i+1:]...)
		return out // current is sorted, so the remainder is too
	default: // swap
		out := make([]int, 0, len(current))
		out = append(out, current[:m.i]...)
		out = append(out, current[m.i+1:]...)
		out = append(out, int(e.ws.Orig[m.l]))
		sort.Ints(out)
		return out
	}
}

// greedyScan runs the shared single-move loop (additions, removals,
// swaps — in exactly that candidate order) over the workspace, scoring
// each candidate with eval(candLen) on the workspace's maintained state.
// The strict epsilon tie-break keeps the earliest best candidate, like
// the reference implementations. The current targets must lie in the
// view, which holds for every k >= 1 (they sit at distance 1).
func (e *Evaluator) greedyScan(current []int, bestScore float64, eval func(candLen int) float64) (float64, move, bool) {
	e.markCandidates(current)
	b := e.ws.Size()
	best := move{}
	improving := false
	consider := func(score float64, m move) {
		if score < bestScore-epsilon {
			bestScore = score
			best = m
			improving = true
		}
	}
	// Additions.
	e.edges = append(e.edges[:0], e.fixed...)
	e.edges = append(e.edges, e.curLoc...)
	e.ws.ResetBase(e.edges)
	for l := 1; l < b; l++ {
		if e.flags[l] != 0 {
			continue
		}
		mark := e.ws.Mark()
		e.ws.AddEdgeRelax(int32(l))
		d := eval(len(current) + 1)
		e.ws.Undo(mark)
		consider(d, move{kind: 1, l: int32(l)})
	}
	// Removals.
	for i := range current {
		e.baseWithout(i)
		e.ws.ResetBase(e.edges)
		consider(eval(len(current)-1), move{kind: 2, i: i})
	}
	// Swaps.
	for i := range current {
		e.baseWithout(i)
		e.ws.ResetBase(e.edges)
		for l := 1; l < b; l++ {
			if e.flags[l] != 0 {
				continue
			}
			mark := e.ws.Mark()
			e.ws.AddEdgeRelax(int32(l))
			d := eval(len(current))
			e.ws.Undo(mark)
			consider(d, move{kind: 3, i: i, l: int32(l)})
		}
	}
	e.clearFlags()
	return bestScore, best, improving
}
