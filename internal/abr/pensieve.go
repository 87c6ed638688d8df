package abr

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"sensei/internal/nn"
	"sensei/internal/player"
	"sensei/internal/qoe"
	"sensei/internal/stats"
	"sensei/internal/trace"
	"sensei/internal/video"
)

// Pensieve is a deep-reinforcement-learning ABR: a policy network maps the
// player state (past throughputs, download times, buffer, next-chunk sizes,
// remaining chunks, last rung) to a distribution over bitrate actions, and
// is trained with REINFORCE against the session QoE. The SENSEI variant
// (§5.2) augments the state with the sensitivity weights of the next h
// chunks, adds {1,2}-second proactive rebuffer actions, and reweights the
// per-chunk reward by sensitivity (Eq. 4).
type Pensieve struct {
	// Sensitivity enables the SENSEI state, actions and reward.
	Sensitivity bool
	// Horizon is how many upcoming chunk weights/sizes the state includes.
	Horizon int
	// Hidden is the policy network width.
	Hidden int
	// Seed makes initialization and training deterministic.
	Seed uint64
	// Quality configures the per-chunk reward kernel.
	Quality qoe.QualityParams

	policy  *nn.MLP
	trained bool

	// initOnce guards lazy policy construction so concurrent Decide calls
	// on a zero-value agent stay safe; initErr records its outcome.
	initOnce sync.Once
	initErr  error
}

// pensieveScratch is one decision's working memory: the feature vector and
// the policy's activations. It points at no agent and no network.
type pensieveScratch struct {
	x  []float64
	nn nn.Scratch
}

// pensievePool recycles decision scratch across agents and goroutines, so
// one trained agent serves any number of concurrent sessions
// allocation-free. It is package-level, like treePool: a sync.Pool inside
// each agent would sit on the runtime's list of pools and keep every
// finished agent and its policy reachable through one more GC.
var pensievePool = sync.Pool{New: func() any { return new(pensieveScratch) }}

const (
	// pensieveHistLen is both the feature window and the history length
	// training rollouts run at. Serving runs at player.Config's default of
	// 8, which only the harmonic-mean feature can see; closing that skew
	// would re-train every policy (DESIGN.md, "One playback model").
	pensieveHistLen = 6
	pensieveRungs   = 5
)

// NewPensieve returns the baseline RL agent (bitrate actions only).
func NewPensieve(seed uint64) *Pensieve {
	return &Pensieve{Horizon: 5, Hidden: 48, Seed: seed, Quality: qoe.DefaultQualityParams()}
}

// NewSenseiPensieve returns the SENSEI variant: weight-augmented state,
// proactive rebuffer actions, weighted reward.
func NewSenseiPensieve(seed uint64) *Pensieve {
	p := NewPensieve(seed)
	p.Sensitivity = true
	return p
}

// Name implements player.Algorithm.
func (p *Pensieve) Name() string {
	if p.Sensitivity {
		return "SENSEI-Pensieve"
	}
	return "Pensieve"
}

// featureSize returns the policy input width.
func (p *Pensieve) featureSize() int {
	n := pensieveHistLen + // throughput history
		pensieveHistLen + // download-time history
		pensieveRungs + // next-chunk sizes
		1 + // harmonic-mean throughput summary
		1 + // buffer
		1 + // fraction remaining
		1 // last rung
	if p.Sensitivity {
		n += p.Horizon // weights of upcoming chunks
	}
	return n
}

// actionCount returns the policy output width: 5 rungs, plus two proactive
// stall actions for the SENSEI variant.
func (p *Pensieve) actionCount() int {
	if p.Sensitivity {
		return pensieveRungs + 2
	}
	return pensieveRungs
}

// appendFeatures appends the encoded player state to out. All inputs are
// scaled to roughly [0, 1] so a fresh network starts in a sane regime.
func (p *Pensieve) appendFeatures(out []float64, s *player.State) []float64 {
	// Throughput history, most recent last, padded at the front.
	for i := 0; i < pensieveHistLen; i++ {
		idx := len(s.ThroughputBps) - pensieveHistLen + i
		if idx < 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, s.ThroughputBps[idx]/8e6)
	}
	for i := 0; i < pensieveHistLen; i++ {
		idx := len(s.DownloadSec) - pensieveHistLen + i
		if idx < 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, s.DownloadSec[idx]/10)
	}
	// Next-chunk sizes per rung.
	for r := 0; r < pensieveRungs; r++ {
		size := 0.0
		if s.ChunkIndex < s.Video.NumChunks() && r < len(s.Video.Ladder) {
			size = s.Video.ChunkSizeBits(s.ChunkIndex, r) / 16e6
		}
		out = append(out, size)
	}
	// Harmonic-mean summary of recent throughput: the robust point estimate
	// a rate-based ABR would use. Giving it to the network explicitly makes
	// the throughput-conditioned policy learnable at small capacity.
	harmonic := 0.0
	if len(s.ThroughputBps) > 0 {
		var inv float64
		for _, v := range s.ThroughputBps {
			if v > 0 {
				inv += 1 / v
			}
		}
		if inv > 0 {
			harmonic = float64(len(s.ThroughputBps)) / inv
		}
	}
	out = append(out, harmonic/8e6)
	out = append(out, s.BufferSec/60)
	remaining := float64(s.Video.NumChunks()-s.ChunkIndex) / float64(s.Video.NumChunks())
	out = append(out, remaining)
	out = append(out, float64(s.LastRung+1)/float64(pensieveRungs))
	if p.Sensitivity {
		// One snapshot read for the whole feature vector: a live refresh
		// can swap profiles between decisions, never inside one.
		ws := s.SensitivityWeights()
		for k := 0; k < p.Horizon; k++ {
			i := s.ChunkIndex + k
			w := 1.0
			if ws != nil && i < len(ws) {
				w = ws[i]
			}
			out = append(out, w/2)
		}
	}
	return out
}

// ensurePolicy lazily builds the network so zero-value configs still work.
// Construction happens at most once; Train and LoadPolicy must run before
// the agent is shared across goroutines, after which the policy weights
// are read-only and Decide is safe to call concurrently.
func (p *Pensieve) ensurePolicy() error {
	p.initOnce.Do(func() {
		if p.policy != nil {
			return
		}
		hidden := p.Hidden
		if hidden <= 0 {
			hidden = 48
		}
		if p.Horizon <= 0 {
			p.Horizon = 5
		}
		m, err := nn.NewMLP(p.Seed^0x9e4, p.featureSize(), hidden, p.actionCount())
		if err != nil {
			p.initErr = fmt.Errorf("abr: building pensieve policy: %w", err)
			return
		}
		p.policy = m
	})
	return p.initErr
}

// decodeAction maps an action index to a Decision. Actions beyond the rung
// range are proactive stalls of 1 or 2 seconds at the previous rung (the
// paper's SENSEI-Pensieve either picks a bitrate or rebuffers).
func (p *Pensieve) decodeAction(a int, s *player.State) player.Decision {
	if a < pensieveRungs {
		return player.Decision{Rung: a}
	}
	rung := s.LastRung
	if rung < 0 {
		rung = 0
	}
	return player.Decision{Rung: rung, PreStallSec: float64(a - pensieveRungs + 1)}
}

// Decide implements player.Algorithm: greedy action from the policy. An
// untrained policy degenerates to its random initialization; call Train
// first for meaningful behaviour.
func (p *Pensieve) Decide(s *player.State) player.Decision {
	if err := p.ensurePolicy(); err != nil {
		return player.Decision{Rung: 0}
	}
	sc := pensievePool.Get().(*pensieveScratch)
	sc.x = p.appendFeatures(sc.x[:0], s)
	d := p.decodeAction(nn.Argmax(p.policy.ForwardWith(&sc.nn, sc.x)), s)
	pensievePool.Put(sc)
	return d
}

// TrainConfig bounds Pensieve training.
type TrainConfig struct {
	// Episodes is the number of training sessions (default 3000).
	Episodes int
	// LearningRate for Adam (default 1e-3).
	LearningRate float64
	// EntropyBonus encourages exploration (default 0.05).
	EntropyBonus float64
	// Gamma is the per-chunk reward discount (default 0.97).
	Gamma float64
	// BatchEpisodes is how many episodes share one gradient step
	// (default 4).
	BatchEpisodes int
	// EvalInterval is how often (in episodes) the greedy policy is scored
	// on a validation set; the best-scoring snapshot is kept (default 250).
	EvalInterval int
}

func (c *TrainConfig) defaults() {
	if c.Episodes <= 0 {
		c.Episodes = 3000
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 1e-3
	}
	if c.EntropyBonus < 0 {
		c.EntropyBonus = 0
	} else if c.EntropyBonus == 0 {
		c.EntropyBonus = 0.05
	}
	if c.Gamma <= 0 || c.Gamma > 1 {
		c.Gamma = 0.97
	}
	if c.BatchEpisodes <= 0 {
		c.BatchEpisodes = 4
	}
	if c.EvalInterval <= 0 {
		c.EvalInterval = 250
	}
}

// Train runs REINFORCE with a moving-average baseline over the given
// training videos and traces. Weights maps video name to profiled
// sensitivity weights (may be nil for the baseline agent; the SENSEI agent
// falls back to uniform weights for unprofiled videos). It returns the
// mean session QoE over the final 10% of episodes.
func (p *Pensieve) Train(videos []*video.Video, traces []*trace.Trace, weights map[string][]float64, cfg TrainConfig) (float64, error) {
	if len(videos) == 0 || len(traces) == 0 {
		return 0, fmt.Errorf("abr: pensieve training needs videos and traces")
	}
	cfg.defaults()
	if err := p.ensurePolicy(); err != nil {
		return 0, err
	}
	rng := stats.NewRNG(p.Seed ^ 0x7a11)
	var tail []float64
	tailStart := cfg.Episodes - cfg.Episodes/10

	// Per-position moving-average baseline b[t] for the discounted return
	// G_t. Discounted returns shrink systematically toward the episode end,
	// so a single scalar baseline would inject positional bias into the
	// advantages (late actions would always look bad). This is the
	// REINFORCE analogue of Pensieve's learned critic.
	var posBaseline []float64
	var posSeen []bool

	// Validation fixtures for checkpoint selection: a deterministic slice
	// of the training distribution, scored with greedy rollouts.
	valVideos := videos
	if len(valVideos) > 2 {
		valVideos = valVideos[:2]
	}
	valTraces := traces
	if len(valTraces) > 6 {
		// Span the bandwidth range: sort by mean throughput and take
		// quantile representatives, so checkpoints are never selected on
		// fast traces alone.
		sorted := append([]*trace.Trace(nil), traces...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].Mean() < sorted[b].Mean() })
		valTraces = nil
		for k := 0; k < 6; k++ {
			valTraces = append(valTraces, sorted[k*(len(sorted)-1)/5])
		}
	}
	bestScore := math.Inf(-1)
	var bestSnap [][]float64

	validate := func() {
		score := p.validationScore(valVideos, valTraces, weights)
		if score > bestScore {
			bestScore = score
			bestSnap = p.policy.Snapshot()
		}
	}

	batchStates := 0
	for epIdx := 0; epIdx < cfg.Episodes; epIdx++ {
		v := videos[rng.Intn(len(videos))]
		tr := traces[rng.Intn(len(traces))]
		var w []float64
		if weights != nil {
			w = weights[v.Name]
		}
		if p.Sensitivity && w == nil {
			w = uniformWeights(v.NumChunks())
		}
		stallScale := math.Sqrt(float64(v.NumChunks())) / 1.75

		// Roll out one episode, sampling actions from the policy.
		ep := p.rollout(v, tr, w, rng, stallScale)
		if len(ep.rewards) == 0 {
			continue
		}

		// Discounted returns.
		returns := make([]float64, len(ep.rewards))
		g := 0.0
		for i := len(ep.rewards) - 1; i >= 0; i-- {
			g = ep.rewards[i] + cfg.Gamma*g
			returns[i] = g
		}
		for len(posBaseline) < len(returns) {
			posBaseline = append(posBaseline, 0)
			posSeen = append(posSeen, false)
		}
		adv := make([]float64, len(returns))
		for t, g := range returns {
			if !posSeen[t] {
				posBaseline[t] = g
				posSeen[t] = true
			}
			adv[t] = g - posBaseline[t]
			posBaseline[t] = 0.95*posBaseline[t] + 0.05*g
		}
		// Scale control: normalize by the advantage spread.
		sd := stats.StdDev(adv)
		if sd < 1e-6 {
			sd = 1
		}
		// Policy gradient: ∇ log π(a|s) · advantage + entropy bonus.
		for t := range ep.states {
			logits := p.policy.Forward(ep.states[t])
			probs := nn.Softmax(logits, nil)
			grad := make([]float64, len(probs))
			for a := range probs {
				indicator := 0.0
				if a == ep.actions[t] {
					indicator = 1
				}
				// d(-logπ(a_t))/dlogit_a = probs[a] - indicator;
				// scale by advantage, add entropy gradient.
				grad[a] = (probs[a] - indicator) * (adv[t] / sd)
				grad[a] += cfg.EntropyBonus * probs[a] * (logOrFloor(probs[a]) + entropy(probs))
			}
			p.policy.Backward(grad)
		}
		batchStates += len(ep.states)
		if (epIdx+1)%cfg.BatchEpisodes == 0 {
			p.policy.Step(cfg.LearningRate, batchStates, 5)
			batchStates = 0
		}
		if (epIdx+1)%cfg.EvalInterval == 0 {
			validate()
		}

		if epIdx >= tailStart {
			tail = append(tail, ep.score)
		}
	}
	validate()
	if bestSnap != nil {
		p.policy.Restore(bestSnap)
	}
	p.trained = true
	if len(tail) == 0 {
		return 0, nil
	}
	return stats.Mean(tail), nil
}

// validationScore plays greedy sessions over the validation fixtures and
// returns the mean session objective (weighted for the SENSEI variant).
func (p *Pensieve) validationScore(videos []*video.Video, traces []*trace.Trace, weights map[string][]float64) float64 {
	var sum float64
	var n int
	for _, v := range videos {
		var w []float64
		if weights != nil {
			w = weights[v.Name]
		}
		if p.Sensitivity && w == nil {
			w = uniformWeights(v.NumChunks())
		}
		for _, tr := range traces {
			res, err := player.Play(v, tr, p, w, player.Config{})
			if err != nil {
				continue
			}
			if p.Sensitivity {
				sum += WeightedSessionQoE(res.Rendering, w)
			} else {
				sum += SessionQoE(res.Rendering)
			}
			n++
		}
	}
	if n == 0 {
		return math.Inf(-1)
	}
	return sum / float64(n)
}

type episode struct {
	states  [][]float64
	actions []int
	rewards []float64
	score   float64
}

// sampler is the trainer's player.Algorithm: it samples the policy where
// Decide takes its argmax, and records what it saw and did.
type sampler struct {
	p   *Pensieve
	rng *stats.RNG
	ep  *episode
}

func (s *sampler) Name() string { return s.p.Name() }

func (s *sampler) Decide(st *player.State) player.Decision {
	x := s.p.appendFeatures(make([]float64, 0, s.p.featureSize()), st)
	a := nn.SampleCategorical(nn.Softmax(s.p.policy.Forward(x), nil), s.rng)
	s.ep.states = append(s.ep.states, x)
	s.ep.actions = append(s.ep.actions, a)
	return s.p.decodeAction(a, st)
}

// rollout plays one episode with stochastic actions through the simulator
// and prices each delivered chunk. A session the simulator rejects (bad
// trace, mis-sized weights) yields an empty episode, which Train skips.
func (p *Pensieve) rollout(v *video.Video, tr *trace.Trace, w []float64, rng *stats.RNG, stallScale float64) *episode {
	ep := &episode{}
	res, err := player.Play(v, tr, &sampler{p: p, rng: rng, ep: ep}, w, player.Config{HistoryLen: pensieveHistLen})
	if err != nil {
		return &episode{}
	}
	r := res.Rendering
	var qSum float64
	for i, rung := range r.Rungs {
		vmaf := v.VMAF(i, rung)
		q := vmaf
		q -= stallScale * p.Quality.StallCost(r.StallSec[i])
		if i > 0 {
			q -= p.Quality.SwitchPenalty * math.Abs(vmaf-v.VMAF(i-1, r.Rungs[i-1]))
		}
		if p.Sensitivity && w != nil {
			q *= w[i]
		}
		qSum += q
		ep.rewards = append(ep.rewards, q)
	}
	ep.score = clamp01((qSum/float64(len(r.Rungs)) + 0.4) / 1.4)
	return ep
}

// uniformWeights returns all-ones weights.
func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func logOrFloor(p float64) float64 {
	if p < 1e-12 {
		p = 1e-12
	}
	return math.Log(p)
}

func entropy(probs []float64) float64 {
	var h float64
	for _, p := range probs {
		if p > 1e-12 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// Compile-time interface check.
var _ player.Algorithm = (*Pensieve)(nil)
