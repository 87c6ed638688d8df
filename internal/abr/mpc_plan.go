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
// decideBrute. Five ideas make it fast while staying exact:
//
//  1. Per-decision tables: everything a node needs that does not depend on
//     the scenario's buffer — the VMAF of (step, rung), the step's
//     sensitivity weight, the switch cost SwitchPenalty·|Δvmaf| of
//     (step, rung, previous rung), and for constant-throughput scenarios
//     the download time of (step, rung) — is computed once per decision
//     instead of once per node × scenario. Exact-replay scenarios (the §2.4
//     oracles) depend on the prefix clock, so their download is evaluated
//     once per distinct prefix, in the same loop.
//  2. Prefix sharing: per-scenario simulation state (buffer level,
//     accumulated quality, trace clock) lives on a depth-indexed stack, so
//     the nRungs^h plans share the simulation of their common prefixes.
//     Per-scenario quality is accumulated in the same order as the brute
//     force, so leaf scores equal scorePlan's.
//  3. Admissible pruning, fused into the step: the scenario loop that
//     simulates a node also accumulates an upper bound on the best
//     completion of its prefix (remaining steps at their weighted VMAF
//     ceiling, penalties ignored). A branch is cut only when that bound
//     falls strictly below the pruning threshold, with an epsilon guard
//     covering the bound's own rounding. At full depth the tail is empty,
//     so the bound of a leaf is its score and no second pass is needed.
//  4. Warm start: each pass first scores the nRungs constant-rung plans.
//     The best of them is a plan of the pass, so its score is at most the
//     pass's optimum: used as a pruning threshold it can cut neither an
//     optimal plan nor a tie for the optimum. It is deliberately not
//     installed as the incumbent — the incumbent is only ever set by offer,
//     whose tie-break reproduces the brute force's enumeration order, so
//     decisions stay byte-identical to the oracle planner.
//  5. Best-first order: children are expanded outward from the warm rung,
//     so the first dives land near the optimum and the incumbent is tight
//     before the bulk of the tree is visited.
type treeSearch struct {
	scenarios []Scenario
	scenBuf   []Scenario // reused backing array for appending predictors
	horizon   int
	nRungs    int
	nSc       int

	bufferSec  float64 // the session's buffer before the plan
	chunkDur   float64
	stallScale float64
	quality    qoe.QualityParams
	risk       float64
	blend      bool // len(scenarios) > 1 && risk > 0

	// Per-decision tables, indexed by horizon step k, rung r and previous
	// rung p; kr abbreviates k*nRungs+r.
	vm   []float64 // [kr] VMAF, plus row horizon: what step 0 switches against
	bits []float64 // [kr] chunk size
	sw   []float64 // [kr*nRungs+p] switch cost; step 0 reads slot p = first
	wt   []float64 // [k] sensitivity weight, 1 when unweighted
	dl   []float64 // [kr*nSc+sc] download time, constant scenarios only
	// first is the slot step 0 reads in sw: the session's last rung, or 0
	// with a zeroed block when there is no previous chunk.
	first int

	// Depth-indexed per-scenario prefix state, [k*nSc+sc]; depth 0 is the
	// pre-plan state, depth k the state after simulating steps 0..k-1.
	buf  []float64 // playback buffer, seconds
	qsum []float64 // accumulated plan quality
	now  []float64 // trace clock, exact-replay scenarios only

	// ubTail[k] bounds the quality attainable by steps k..horizon-1 in any
	// scenario; ubTail[horizon] = 0.
	ubTail   []float64
	canPrune bool

	pre float64 // proactive stall of the current pass
	// thr is the pass's pruning threshold — the highest of the caller's
	// floor, the warm plan's score and the incumbent's — and cut the value
	// a bound must fall below to be pruned: thr less the rounding guard, or
	// -Inf when pruning is disabled.
	thr, cut float64
	order    []int // child expansion order, outward from the warm rung

	plan      []int
	bestPlan  []int
	bestScore float64
	haveBest  bool

	nodes int // step calls of the current decision
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

// predict returns pred's scenarios for history, appended to the scratch's
// reused buffer when pred is a ScenarioAppender.
func (t *treeSearch) predict(pred Predictor, history []float64) []Scenario {
	if sa, ok := pred.(ScenarioAppender); ok {
		t.scenBuf = sa.AppendScenarios(history, t.scenBuf[:0])
		return t.scenBuf
	}
	return pred.Predict(history)
}

// decideTree runs the tree-search planner on scratch t. It mirrors
// decideBrute's decision logic exactly: per pre-stall pass the best plan is
// tracked with the brute force's first-in-enumeration-order tie-break, and a
// nonzero proactive stall must clear PreStallMargin over the best
// stall-free plan.
func (m *MPC) decideTree(t *treeSearch, s *player.State, horizon int, preStalls []float64, pred Predictor, weights []float64) player.Decision {
	t.reset(m, s, horizon, t.predict(pred, s.ThroughputBps), weights)

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
	t.nodes = 0

	t.vm = grow(t.vm, (horizon+1)*nR)
	t.bits = grow(t.bits, horizon*nR)
	t.sw = grow(t.sw, horizon*nR*nR)
	t.wt = grow(t.wt, horizon)
	t.dl = grow(t.dl, horizon*nR*nSc)
	t.buf = grow(t.buf, (horizon+1)*nSc)
	t.qsum = grow(t.qsum, (horizon+1)*nSc)
	t.now = grow(t.now, (horizon+1)*nSc)
	t.ubTail = grow(t.ubTail, horizon+1)
	t.order = growInt(t.order, nR)
	t.plan = growInt(t.plan, horizon)
	t.bestPlan = growInt(t.bestPlan, horizon)
	for r := range t.order {
		t.order[r] = r
	}

	// The bound assumes penalties only subtract and aggregation weights are
	// nonnegative; under exotic configurations (negative penalties or
	// weights, risk blend outside [0,1]) pruning is disabled and the search
	// still wins through table reuse and prefix sharing alone.
	t.canPrune = m.Quality.StallPenalty >= 0 && m.Quality.SwitchPenalty >= 0 &&
		t.risk >= 0 && t.risk <= 1
	for _, scen := range scenarios {
		if scen.P < 0 {
			t.canPrune = false
		}
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
	t.ubTail[horizon] = 0
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
		stepUB := math.Inf(-1)
		for r := 0; r < nR; r++ {
			kr := k*nR + r
			t.bits[kr] = v.ChunkSizeBits(i, r)
			// The explicit conversion rounds the product as a table entry
			// is rounded, so scorePlan (which converts likewise) agrees on
			// architectures that would otherwise fuse the multiply into
			// the subtraction.
			for p := 0; p < nR; p++ {
				t.sw[kr*nR+p] = float64(m.Quality.SwitchPenalty * math.Abs(vmaf[r]-prev[p]))
			}
			if q := w * vmaf[r]; q > stepUB {
				stepUB = q
			}
			// The division matches the brute force's inner-loop expression
			// operand for operand, so download times are bit-identical.
			for sc := range scenarios {
				if scenarios[sc].Exact == nil {
					t.dl[kr*nSc+sc] = t.bits[kr] / scenarios[sc].Bps
				}
			}
		}
		t.ubTail[k] = stepUB + t.ubTail[k+1]
	}
	// Step 0 switches against the session's last rung; with none there is
	// no switch term, and subtracting a zero entry is exact.
	t.first = s.LastRung
	if t.first < 0 {
		t.first = 0
		clear(t.sw[:nR*nR])
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
	t.warmStart()
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

// warmStart scores the constant-rung plans, raises the threshold to the
// best of them and orders child expansion outward from its rung. A
// constant plan is abandoned as soon as its bound falls below the cut: it
// could not have raised the threshold. When none completes (a stall pass
// the floor already dominates) the previous pass's order stands.
func (t *treeSearch) warmStart() {
	warm := -1
	for r := 0; r < t.nRungs; r++ {
		prev, score := t.first, 0.0
		for k := 0; k < t.horizon; k++ {
			if score = t.step(k, r, prev); score < t.cut {
				break
			}
			prev = r
		}
		if score > t.thr {
			t.raise(score)
			warm = r
		}
	}
	if warm < 0 {
		return
	}
	t.order = append(t.order[:0], warm)
	for d := 1; d < t.nRungs; d++ {
		if r := warm + d; r < t.nRungs {
			t.order = append(t.order, r)
		}
		if r := warm - d; r >= 0 {
			t.order = append(t.order, r)
		}
	}
}

// dfs extends the plan prefix of depth k, whose last rung is prev, by every
// rung choice.
func (t *treeSearch) dfs(k, prev int) {
	leaf := k+1 == t.horizon
	for _, r := range t.order {
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
// finishes its remaining steps at the weighted VMAF ceiling with no stall
// or switch penalties, aggregated exactly as scorePlan aggregates a score
// (expected value, optionally blended with the worst case). At the last
// step the tail is empty and the bound is the plan's score. The quality
// arithmetic replicates scorePlan operation for operation so shared
// prefixes accumulate bit-identical quality.
func (t *treeSearch) step(k, r, prev int) float64 {
	t.nodes++
	nSc := t.nSc
	kr := k*t.nRungs + r
	vmaf, sw, wt, tail := t.vm[kr], t.sw[kr*t.nRungs+prev], t.wt[k], t.ubTail[k+1]
	pre := 0.0
	if k == 0 {
		pre = t.pre
	}
	dls := t.dl[kr*nSc : kr*nSc+nSc]
	buf0, buf1 := t.buf[k*nSc:k*nSc+nSc], t.buf[(k+1)*nSc:(k+1)*nSc+nSc]
	q0, q1 := t.qsum[k*nSc:k*nSc+nSc], t.qsum[(k+1)*nSc:(k+1)*nSc+nSc]

	var expected float64
	worst := math.Inf(1)
	for sc := range t.scenarios {
		scen := &t.scenarios[sc]
		var dl float64
		if scen.Exact != nil {
			start := t.now[k*nSc+sc]
			end := scen.Exact.DownloadEnd(start, t.bits[kr])
			dl = end - start
			t.now[(k+1)*nSc+sc] = end
		} else {
			dl = dls[sc]
		}
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
		expected += scen.P * ub
		if ub < worst {
			worst = ub
		}
	}
	if t.blend {
		return (1-t.risk)*expected + t.risk*worst
	}
	return expected
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
