// Package hardness implements the NP-hardness reductions sketched in §2:
// computing a best response in MAXNCG (k >= 1, α = 2/n) and SUMNCG
// (k >= 2, 1 < α < 2) is NP-hard by reduction from MINIMUM DOMINATING
// SET. The reduction — from Fabrikant et al. and Mihalák–Schlegel,
// adapted to the local-knowledge games — attaches a fresh player to every
// vertex of the instance graph; her best response is exactly to buy edges
// towards a minimum dominating set.
//
// The package builds the reduction instance and extracts the dominating
// set back from a best response, so tests can certify the equivalence
// constructively (and, conversely, the best-response machinery can be
// validated against the independent MDS solver).
package hardness

import (
	"fmt"

	"repro/internal/bestresponse"
	"repro/internal/game"
	"repro/internal/graph"
)

// Instance is a built reduction: the game state contains the original
// graph on vertices 0..n-1 plus the joining player with id n, initially
// buying edges to every original vertex (the paper's "new player is
// initially buying all the edges towards all the other players").
type Instance struct {
	// State is the game state (n+1 players).
	State *game.State
	// Joiner is the id of the added player (= original n).
	Joiner int
	// Original is the instance graph the dominating set is sought in.
	Original *graph.Graph
}

// Build constructs the reduction instance for an arbitrary connected
// instance graph g. Ownership of g's edges is irrelevant to the joiner's
// best response; each is assigned to its lower endpoint.
func Build(g *graph.Graph) (*Instance, error) {
	if g.N() < 1 {
		return nil, fmt.Errorf("hardness: empty instance graph")
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("hardness: instance graph must be connected")
	}
	n := g.N()
	s := game.NewState(n + 1)
	for _, e := range g.Edges() {
		s.Buy(e.U, e.V)
	}
	all := make([]int, n)
	for v := 0; v < n; v++ {
		all[v] = v
	}
	s.SetStrategy(n, all)
	return &Instance{State: s, Joiner: n, Original: g.Clone()}, nil
}

// MaxAlpha returns the α used by the MAXNCG reduction (α = 2/n): with
// this price, buying towards a dominating set (eccentricity 2) is optimal
// and every smaller purchase forces eccentricity >= 3, which costs more
// than the saved edges.
func (in *Instance) MaxAlpha() float64 { return 2.0 / float64(in.Original.N()) }

// JoinerBestResponse computes the joining player's exact best response in
// MAXNCG at the reduction's α. Since the joiner is adjacent to everyone,
// her view at any k >= 1 is the whole network — exactly the paper's
// argument that the reduction carries over to the local game.
func (in *Instance) JoinerBestResponse(k int) bestresponse.Response {
	return bestresponse.NewEvaluator().MaxBestResponse(in.State, in.Joiner, k, in.MaxAlpha())
}

// DominatingSetFromResponse interprets a joiner strategy as a vertex set
// of the original graph and reports whether it dominates it.
func (in *Instance) DominatingSetFromResponse(strategy []int) ([]int, bool) {
	set := make([]int, 0, len(strategy))
	for _, v := range strategy {
		if v == in.Joiner {
			return nil, false
		}
		set = append(set, v)
	}
	covered := make([]bool, in.Original.N())
	for _, v := range set {
		covered[v] = true
		for _, w := range in.Original.Neighbors(v) {
			covered[w] = true
		}
	}
	for _, c := range covered {
		if !c {
			return set, false
		}
	}
	return set, true
}

// DominationNumberViaBestResponse recovers γ(g) by solving the joiner's
// best response — the constructive direction of the reduction. It panics
// if the response does not decode to a dominating set (which would
// falsify the reduction or the responder).
func DominationNumberViaBestResponse(g *graph.Graph, k int) (int, error) {
	in, err := Build(g)
	if err != nil {
		return 0, err
	}
	r := in.JoinerBestResponse(k)
	set, ok := in.DominatingSetFromResponse(r.Strategy)
	if !ok {
		return 0, fmt.Errorf("hardness: best response %v is not a dominating set", r.Strategy)
	}
	return len(set), nil
}
