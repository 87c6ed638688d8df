package abr

import "sensei/internal/player"

// decideCountingNodes is Decide on a private scratch, additionally
// returning how many tree nodes (step calls) the decision expanded.
func decideCountingNodes(m *MPC, s *player.State) (player.Decision, int) {
	t := new(treeSearch)
	d := m.decide(t, s)
	return d, t.nodes
}
