package dynamics

import (
	"math/rand"
	"sort"

	"repro/internal/bestresponse"
	"repro/internal/game"
	"repro/internal/swap"
)

// This file adapts the non-best-response move rules behind the Responder
// seam, so the one engine (engine.go) runs every dialect: schedules,
// dirty-set activation, cycle detection, trajectories, and checkpoint
// byte-identity all come for free.

// SwapResponder adapts swap.BestSwap to the engine: the player's only
// move is to re-point one endpoint of an edge she owns (no purchases, no
// deletions — Alon et al.'s basic game under the locality model; see
// package swap). α is ignored by the move rule: the edge count never
// changes, so the building term cancels out of every comparison. The
// responder is stateless and deterministic, and it reads only the
// player's k-ball view plus the arcs bought towards her, so event-driven
// activation stays sound. Cost fields of the response are not populated
// (the swap scan compares integer usage costs internally).
//
// Applying the returned strategy through game.SetStrategy removes
// exactly the old endpoint and appends exactly the new one, the same
// adjacency-list evolution as swap.Apply — so engine-run swap dynamics
// are cell-for-cell identical to swap.Run, which the sweepd differential
// tests pin.
func SwapResponder(variant game.Variant) Responder {
	obj := swap.MaxEcc
	if variant == game.Sum {
		obj = swap.SumDist
	}
	return func(s *game.State, u, k int, alpha float64) bestresponse.Response {
		m, ok := swap.BestSwap(s, u, k, obj)
		if !ok {
			return bestresponse.Response{Strategy: s.Strategy(u), Improving: false}
		}
		cur := s.Strategy(u)
		out := make([]int, 0, len(cur))
		for _, w := range cur {
			if w != m.Old {
				out = append(out, w)
			}
		}
		out = append(out, m.New)
		sort.Ints(out)
		return bestresponse.Response{Strategy: out, Improving: true}
	}
}

// NewLargeNeighborhoodResponder returns a constructor for responders
// running shift/exchange best-improvement descent (see
// bestresponse/descent.go) bound to their own Evaluator — the
// large-neighborhood dialect's analogue of NewMaxResponder /
// NewSumResponder.
func NewLargeNeighborhoodResponder(variant game.Variant) func() Responder {
	return func() Responder {
		e := bestresponse.NewEvaluator()
		if variant == game.Sum {
			return e.SumLargeNeighborhoodResponse
		}
		return e.MaxLargeNeighborhoodResponse
	}
}

// CellState reconstructs the starting state a sweep builds for one cell:
// the factory applied to the cell's private RNG stream derived from the
// base seed. Exported so differential tests (and debugging tools) can
// re-create the exact network a daemon-run cell started from and replay
// it through an independent implementation.
func CellState(factory Factory, cell Cell, baseSeed int64) *game.State {
	rng := rand.New(rand.NewSource(cellSeed(baseSeed, cell)))
	return factory(cell, rng)
}
