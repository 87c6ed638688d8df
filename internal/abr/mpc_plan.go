package abr

import (
	"math"
	"sync"

	"sensei/internal/player"
	"sensei/internal/qoe"
	"sensei/internal/video"
)

// This file implements the MPC planner as a depth-first tree search over
// the plan prefix, replacing the flat base-nRungs enumeration of
// decideBrute. Four ideas make it fast while staying exact:
//
//  1. Per-decision tables: everything a node needs that does not depend on
//     the scenario's buffer — the VMAF of (step, rung), the step's
//     sensitivity weight, the switch cost SwitchPenalty·|Δvmaf| of
//     (step, rung, previous rung), the scenario probabilities and for
//     constant-throughput scenarios the download time of (step, rung) — is
//     computed once per decision instead of once per node × scenario.
//     Exact-replay scenarios (the §2.4 oracles) depend on the prefix clock,
//     so a pre-pass writes their download times into the same row once per
//     distinct prefix, and one scenario loop serves both kinds.
//  2. Prefix sharing: per-scenario simulation state (buffer level,
//     accumulated quality, trace clock) lives on a depth-indexed stack, so
//     the nRungs^h plans share the simulation of their common prefixes.
//     Per-scenario quality is accumulated in the same order as the brute
//     force, so leaf scores equal scorePlan's.
//  3. Admissible pruning: the bound of a prefix finishes each scenario
//     with the best stall-free weighted completion of the remaining steps,
//     switch costs included (a per-decision DP table over the previous
//     rung). The scenario loop that simulates a node also accumulates the
//     bound, and before a child is simulated at all an O(1) pre-check
//     bounds it from its parent's aggregate, its own stall-free quality
//     and the tail. A branch is cut only when a bound falls strictly below
//     the pruning threshold, with an epsilon guard covering the bound's
//     own rounding. At full depth the tail is empty, so the bound of a
//     leaf is its score and no second pass is needed.
//  4. Outward order: children are expanded outward from the session's last
//     rung (up before down), an order built once per decision, so each
//     pass's first dive is the constant plan at the last rung. Its leaf
//     sets the incumbent through offer, which tightens the threshold before
//     the bulk of the tree is visited; offer's tie-break reproduces the
//     brute force's enumeration order, so decisions stay byte-identical to
//     the oracle planner whatever order plans are visited in.
type treeSearch struct {
	scenarios []Scenario
	scenBuf   []Scenario // reused backing array for Predict
	horizon   int
	nRungs    int
	nSc       int

	bufferSec  float64 // the session's buffer before the plan
	chunkDur   float64
	stallScale float64
	quality    qoe.QualityParams
	risk       float64
	blend      bool // len(scenarios) > 1 && risk > 0
	// p holds each scenario's probability; exact is set when any scenario
	// is an exact replay. scale is what the pre-check multiplies a quality
	// shared by every scenario with: (1−risk)·Σp + risk blended, else Σp.
	p     []float64
	exact bool
	scale float64

	// Per-decision tables, indexed by horizon step k, rung r and previous
	// rung p; kr abbreviates k*nRungs+r.
	vm   []float64 // [kr] VMAF, plus row horizon: what step 0 switches against
	bits []float64 // [kr] chunk size
	sw   []float64 // [kr*nRungs+p] switch cost; step 0 reads slot p = first
	// gain[kr*nRungs+p] = wt[k]·(vm[kr] − sw[kr*nRungs+p]) + ubTail[k+1][r]:
	// the most step k at rung r after rung p and its completion can add
	// to any scenario's quality.
	gain []float64
	wt   []float64 // [k] sensitivity weight, 1 when unweighted
	// [kr*nSc+sc] download time: constant scenarios' filled per decision,
	// exact-replay scenarios' per prefix, by replay.
	dl []float64
	// first is the slot step 0 reads in sw: the session's last rung, or 0
	// when there is no previous chunk and the step-0 block is zero.
	first int

	// Depth-indexed per-scenario prefix state, [k*nSc+sc]; depth 0 is the
	// pre-plan state, depth k the state after simulating steps 0..k-1.
	buf  []float64 // playback buffer, seconds
	qsum []float64 // accumulated plan quality
	now  []float64 // trace clock, exact-replay scenarios only

	// ubTail[k*nRungs+p] = max_r gain[(k*nRungs+r)*nRungs+p] bounds the
	// weighted quality steps k..horizon-1 can add after rung p at step
	// k-1, in any scenario: the best completion with every stall at zero,
	// switch costs included. Row horizon is zero; row 0 is not read.
	ubTail   []float64
	canPrune bool

	pre float64 // proactive stall of the current pass
	// thr is the pass's pruning threshold — the higher of the caller's
	// floor and the incumbent's score — and cut the value a bound must
	// fall below to be pruned: thr less the rounding guard, or -Inf when
	// pruning is disabled.
	thr, cut float64
	order    []int // child expansion order, outward from first

	plan      []int
	bestPlan  []int
	bestScore float64
	haveBest  bool

	nodes int // step calls of the current decision
	skips int // children the pre-check discarded without a step call
	dfss  int // dfs calls: prefixes whose children were expanded
}

// treePool recycles search scratch across decisions and goroutines: steady
// state planning allocates nothing, and MPC instances stay safe for
// concurrent Decide calls because no scratch lives on the MPC.
var treePool = sync.Pool{New: func() any { return new(treeSearch) }}

// release returns the scratch to the pool. The scenarios are the only
// references a search keeps to its session (exact-replay ones point at the
// trace); they are dropped so an idle slot pins nothing.
func (t *treeSearch) release() {
	clear(t.scenBuf)
	t.scenarios = nil
	treePool.Put(t)
}

// decideTree runs the tree-search planner on scratch t. It mirrors
// decideBrute's decision logic exactly: per pre-stall pass the best plan is
// tracked with the brute force's first-in-enumeration-order tie-break, and a
// nonzero proactive stall must clear PreStallMargin over the best
// stall-free plan.
func (m *MPC) decideTree(t *treeSearch, s *player.State, horizon int, preStalls []float64, pred Predictor, weights []float64) player.Decision {
	t.scenBuf = pred.Predict(s.ThroughputBps, t.scenBuf[:0])
	t.reset(m, s, horizon, t.scenBuf, weights)

	bestNoStall := math.Inf(-1)
	best := player.Decision{Rung: 0}
	bestStallScore := math.Inf(-1)
	var bestStallDecision player.Decision

	for _, pre := range preStalls {
		if pre == 0 {
			score, plan, ok := t.run(0, bestNoStall)
			if ok && score > bestNoStall {
				bestNoStall = score
				best = player.Decision{Rung: plan[0]}
			}
			continue
		}
		// Plans that can neither beat the running stall best nor clear the
		// no-stall gate can never become the returned decision, so the
		// search may discard them early.
		floor := bestStallScore
		if gate := bestNoStall + m.PreStallMargin; gate > floor {
			floor = gate
		}
		score, plan, ok := t.run(pre, floor)
		if ok && score > bestStallScore {
			bestStallScore = score
			bestStallDecision = player.Decision{Rung: plan[0], PreStallSec: pre}
		}
	}
	if bestStallScore > bestNoStall+m.PreStallMargin {
		return bestStallDecision
	}
	return best
}

// reset prepares the scratch for one decision, reusing prior capacity.
func (t *treeSearch) reset(m *MPC, s *player.State, horizon int, scenarios []Scenario, weights []float64) {
	v := s.Video
	nR, nSc := len(v.Ladder), len(scenarios)
	t.scenarios = scenarios
	t.horizon, t.nRungs, t.nSc = horizon, nR, nSc
	t.bufferSec = s.BufferSec
	t.chunkDur = video.ChunkDuration.Seconds()
	t.stallScale = math.Sqrt(float64(v.NumChunks())) / 1.75
	t.quality = m.Quality
	t.risk = m.RiskAversion
	t.blend = nSc > 1 && t.risk > 0
	t.nodes, t.skips, t.dfss = 0, 0, 0

	t.vm = grow(t.vm, (horizon+1)*nR)
	t.bits = grow(t.bits, horizon*nR)
	t.sw = grow(t.sw, horizon*nR*nR)
	t.gain = grow(t.gain, horizon*nR*nR)
	t.wt = grow(t.wt, horizon)
	t.dl = grow(t.dl, horizon*nR*nSc)
	t.buf = grow(t.buf, (horizon+1)*nSc)
	t.qsum = grow(t.qsum, (horizon+1)*nSc)
	t.now = grow(t.now, (horizon+1)*nSc)
	t.ubTail = grow(t.ubTail, (horizon+1)*nR)
	t.p = grow(t.p, nSc)
	t.plan = growInt(t.plan, horizon)
	t.bestPlan = growInt(t.bestPlan, horizon)

	// The bound assumes penalties only subtract and aggregation weights are
	// nonnegative; under exotic configurations (negative penalties or
	// weights, risk blend outside [0,1]) pruning is disabled and the search
	// still wins through table reuse and prefix sharing alone.
	t.canPrune = m.Quality.StallPenalty >= 0 && m.Quality.SwitchPenalty >= 0 &&
		t.risk >= 0 && t.risk <= 1
	t.exact = false
	sumP := 0.0
	for sc, scen := range scenarios {
		t.p[sc] = scen.P
		sumP += scen.P
		if scen.P < 0 {
			t.canPrune = false
		}
		if scen.Exact != nil {
			t.exact = true
		}
	}
	t.scale = sumP
	if t.blend {
		t.scale = (1-t.risk)*sumP + t.risk
	}

	// The VMAF rows of the plan's chunks, then of the chunk before the
	// plan (prevVMAF: chunk 0 switches against its own row).
	for k := 0; k <= horizon; k++ {
		i := s.ChunkIndex + k
		if k == horizon {
			i = max(s.ChunkIndex-1, 0)
		}
		for r := 0; r < nR; r++ {
			t.vm[k*nR+r] = v.VMAF(i, r)
		}
	}

	weighted := m.Sensitivity && weights != nil
	// Step 0 switches against the session's last rung; with none there is
	// no switch term, and subtracting a zero entry is exact. Children are
	// expanded outward from it, up before down.
	t.first = max(s.LastRung, 0)
	t.order = append(t.order[:0], t.first)
	for d := 1; d < nR; d++ {
		if r := t.first + d; r < nR {
			t.order = append(t.order, r)
		}
		if r := t.first - d; r >= 0 {
			t.order = append(t.order, r)
		}
	}
	clear(t.ubTail[horizon*nR:])
	for k := horizon - 1; k >= 0; k-- {
		i := s.ChunkIndex + k
		// Multiplying by 1 is exact, so the unweighted objective shares the
		// weighted kernel.
		w := 1.0
		if weighted {
			w = weights[i]
			if w < 0 {
				t.canPrune = false
			}
		}
		t.wt[k] = w
		vmaf := t.vm[k*nR : (k+1)*nR]
		prev := t.vm[horizon*nR:]
		if k > 0 {
			prev = t.vm[(k-1)*nR : k*nR]
		}
		switches := k > 0 || s.LastRung >= 0
		// Stalls only subtract and w ≥ 0 whenever a bound is used, so the
		// best stall-free completion after each previous rung bounds every
		// completion.
		tail, row := t.ubTail[(k+1)*nR:(k+2)*nR], t.ubTail[k*nR:(k+1)*nR]
		for p := range row {
			row[p] = math.Inf(-1)
		}
		for r := 0; r < nR; r++ {
			kr := k*nR + r
			t.bits[kr] = v.ChunkSizeBits(i, r)
			for p := 0; p < nR; p++ {
				// The explicit conversion rounds the product as a table
				// entry is rounded, so scorePlan (which converts likewise)
				// agrees on architectures that would otherwise fuse the
				// multiply into the subtraction.
				sw := 0.0
				if switches {
					sw = float64(m.Quality.SwitchPenalty * math.Abs(vmaf[r]-prev[p]))
				}
				t.sw[kr*nR+p] = sw
				g := w*(vmaf[r]-sw) + tail[r]
				t.gain[kr*nR+p] = g
				row[p] = max(row[p], g)
			}
			// The division matches the brute force's inner-loop expression
			// operand for operand, so download times are bit-identical.
			for sc := range scenarios {
				if scenarios[sc].Exact == nil {
					t.dl[kr*nSc+sc] = t.bits[kr] / scenarios[sc].Bps
				}
			}
		}
	}
}

// run searches one pre-stall pass and returns the pass's best score and
// plan. Scores at or below floor may be silently dropped: the caller has
// already established they cannot influence the returned decision.
func (t *treeSearch) run(pre, floor float64) (float64, []int, bool) {
	for sc := range t.scenarios {
		scen := &t.scenarios[sc]
		t.buf[sc] = t.bufferSec + pre
		t.qsum[sc] = 0
		if scen.Exact != nil {
			// Mirror NewCursor + Advance(StartSec).
			now := 0.0
			if scen.StartSec > 0 {
				now = scen.StartSec
			}
			t.now[sc] = now
		}
	}
	t.pre = pre
	t.bestScore = math.Inf(-1)
	t.haveBest = false
	t.thr, t.cut = math.Inf(-1), math.Inf(-1)
	t.raise(floor)
	t.dfs(0, t.first)
	return t.bestScore, t.bestPlan, t.haveBest
}

// raise lifts the pruning threshold to score if that is higher. A bound is
// cut only when strictly below the threshold by more than the bound's own
// rounding slack; ties must survive so the enumeration-order tie-break
// stays exact.
func (t *treeSearch) raise(score float64) {
	if score > t.thr {
		t.thr = score
		if t.canPrune {
			t.cut = score - 1e-9*(math.Abs(score)+1)
		}
	}
}

// dfs extends the plan prefix of depth k, whose last rung is prev, by every
// rung choice. A child is first bounded in O(1). No scenario can gain more
// from it than c = gain[kr*nRungs+prev], since its stall only subtracts,
// and adding the same c to every scenario adds scale·c to the prefix's
// aggregate A: the expectation and the minimum both shift with c, and the
// blend is linear. Every coefficient is nonnegative whenever the cut is
// finite, so A + scale·c bounds what step would return. A child it puts
// below the cut may be dropped: step would have pruned it, or, at a leaf,
// its score is under the threshold, so it is neither the pass's optimum
// nor a score the caller's floor lets matter.
func (t *treeSearch) dfs(k, prev int) {
	t.dfss++
	nR, nSc := t.nRungs, t.nSc
	leaf := k+1 == t.horizon

	var a float64
	worst := math.Inf(1)
	for sc, q := range t.qsum[k*nSc : (k+1)*nSc] {
		a += t.p[sc] * q
		if q < worst {
			worst = q
		}
	}
	if t.blend {
		a = (1-t.risk)*a + t.risk*worst
	}
	gain, scale := t.gain[k*nR*nR:(k+1)*nR*nR], t.scale

	for _, r := range t.order {
		if a+scale*gain[r*nR+prev] < t.cut {
			t.skips++
			continue
		}
		t.plan[k] = r
		bound := t.step(k, r, prev)
		switch {
		case leaf:
			t.offer(bound)
		case bound < t.cut:
			// pruned
		default:
			t.dfs(k+1, r)
		}
	}
}

// step simulates horizon step k at rung r after rung prev under every
// scenario, writing the depth-k+1 state, and returns the upper bound on
// the score of any completion of the extended prefix: each scenario
// finishes its remaining steps with the tail bound ubTail after rung r,
// aggregated exactly as scorePlan aggregates a score (expected value,
// optionally blended with the worst case). At the last step the tail is
// empty and the bound is the plan's score. The quality arithmetic
// replicates scorePlan operation for operation so shared prefixes
// accumulate bit-identical quality.
func (t *treeSearch) step(k, r, prev int) float64 {
	t.nodes++
	nR, nSc := t.nRungs, t.nSc
	kr := k*nR + r
	vmaf, sw, wt, tail := t.vm[kr], t.sw[kr*nR+prev], t.wt[k], t.ubTail[(k+1)*nR+r]
	pre := 0.0
	if k == 0 {
		pre = t.pre
	}
	dls := t.dl[kr*nSc : kr*nSc+nSc]
	if t.exact {
		t.replay(k, kr, dls)
	}
	p := t.p[:len(dls)]
	buf0, buf1 := t.buf[k*nSc:k*nSc+len(dls)], t.buf[(k+1)*nSc:(k+1)*nSc+len(dls)]
	q0, q1 := t.qsum[k*nSc:k*nSc+len(dls)], t.qsum[(k+1)*nSc:(k+1)*nSc+len(dls)]

	var expected float64
	worst := math.Inf(1)
	for sc, dl := range dls {
		buffer := buf0[sc]
		stall := pre
		if dl > buffer {
			stall += dl - buffer
			buffer = 0
		} else {
			buffer -= dl
		}
		buf1[sc] = buffer + t.chunkDur

		q := vmaf
		if stall > 0 { // a zero stall costs exactly nothing
			q -= float64(t.stallScale * t.quality.StallCost(stall))
		}
		q -= sw
		q *= wt
		q += q0[sc]
		q1[sc] = q

		ub := q + tail
		expected += p[sc] * ub
		if ub < worst {
			worst = ub
		}
	}
	if t.blend {
		return (1-t.risk)*expected + t.risk*worst
	}
	return expected
}

// replay writes the download time of step k at table entry kr into the dl
// row slot of each exact-replay scenario, replaying its trace from the
// depth-k clock, and advances that clock to depth k+1. It mirrors a trace
// cursor's Download, so times are bit-identical to scorePlan's.
func (t *treeSearch) replay(k, kr int, dls []float64) {
	nSc := t.nSc
	for sc := range t.scenarios {
		scen := &t.scenarios[sc]
		if scen.Exact == nil {
			continue
		}
		start := t.now[k*nSc+sc]
		end := scen.Exact.DownloadEnd(start, t.bits[kr])
		dls[sc] = end - start
		t.now[(k+1)*nSc+sc] = end
	}
}

// offer installs a completed plan as the incumbent if it scores strictly
// higher — or ties and precedes the incumbent in the brute force's
// enumeration order. decideBrute walks plans in base-nRungs code order
// with plan[0] the least significant digit and keeps the first plan
// reaching the maximum, so the tie-break compares digits from the deepest
// step down, whatever order the search visits plans in.
func (t *treeSearch) offer(score float64) {
	if score > t.bestScore {
		t.bestScore = score
		copy(t.bestPlan, t.plan[:t.horizon])
		t.haveBest = true
		t.raise(score)
		return
	}
	if !t.haveBest || score != t.bestScore {
		return
	}
	for j := t.horizon - 1; j >= 0; j-- {
		if t.plan[j] != t.bestPlan[j] {
			if t.plan[j] < t.bestPlan[j] {
				copy(t.bestPlan, t.plan[:t.horizon])
			}
			return
		}
	}
}

// grow returns a float64 slice of length n, reusing capacity.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInt returns an int slice of length n, reusing capacity.
func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
