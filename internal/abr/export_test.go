package abr

import "sensei/internal/player"

// decideCountingNodes is Decide on a private scratch, additionally
// returning how many tree nodes (step calls) the decision expanded, how
// many children the pre-check discarded without one, and how many dfs
// calls expanded a prefix's children.
func decideCountingNodes(m *MPC, s *player.State) (d player.Decision, nodes, skips, dfss int) {
	t := new(treeSearch)
	d = m.decide(t, s)
	return d, t.nodes, t.skips, t.dfss
}
