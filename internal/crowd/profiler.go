package crowd

import (
	"fmt"
	"math"

	"sensei/internal/mos"
	"sensei/internal/par"
	"sensei/internal/qoe"
	"sensei/internal/video"
)

// SchedulerParams are the knobs of the two-step rendered-video scheduler
// (§4.3), with the paper's empirically chosen defaults.
type SchedulerParams struct {
	// M1 is the raters per rendering in step one (default 10).
	M1 int
	// M2 is the raters per rendering in step two (default 5).
	M2 int
	// BitrateLevels is B, the number of drop rungs probed in step two
	// (default 2).
	BitrateLevels int
	// RebufferLevels is F, the number of rebuffer durations probed in step
	// two: 1s, 2s, ... (default 1).
	RebufferLevels int
	// Alpha is the weight-deviation threshold for selecting step-two
	// chunks: chunks with |w−1| > Alpha are investigated (default 0.06).
	Alpha float64
	// RidgeLambda regularizes weight inference (default 0.05).
	RidgeLambda float64
}

// DefaultSchedulerParams returns the paper's chosen sweet spot: B=2, F=1,
// M1=10, M2=5, α=6%.
func DefaultSchedulerParams() SchedulerParams {
	return SchedulerParams{M1: 10, M2: 5, BitrateLevels: 2, RebufferLevels: 1, Alpha: 0.06, RidgeLambda: 0.05}
}

func (p *SchedulerParams) defaults() {
	if p.M1 <= 0 {
		p.M1 = 10
	}
	if p.M2 <= 0 {
		p.M2 = 5
	}
	if p.BitrateLevels <= 0 {
		p.BitrateLevels = 2
	}
	if p.RebufferLevels <= 0 {
		p.RebufferLevels = 1
	}
	if p.Alpha <= 0 {
		p.Alpha = 0.06
	}
	if p.RidgeLambda <= 0 {
		p.RidgeLambda = 0.05
	}
}

// ValidWeight reports whether w is a plausible per-chunk sensitivity
// weight. The origin's weight files (origin.ReadWeights, the one on-disk
// codec), the manifest codec and every published profile enforce this same
// contract, so a change to the valid range happens in exactly one place.
func ValidWeight(w float64) bool { return w > 0 && w <= 10 }

// Profile is the result of profiling one video: the inferred sensitivity
// weights plus the campaign's bill.
type Profile struct {
	// VideoName identifies the profiled source video.
	VideoName string
	// Weights are the inferred per-chunk sensitivity weights (mean 1).
	Weights []float64
	// CostUSD is the total crowdsourcing payout.
	CostUSD float64
	// CostPerMinuteUSD normalizes cost by video length (the paper reports
	// $31.4 per minute of video with pruning).
	CostPerMinuteUSD float64
	// DelayMinutes estimates campaign wall-clock time.
	DelayMinutes float64
	// Participants is the number of distinct raters recruited.
	Participants int
	// RatedRenderings is how many rendered videos were rated.
	RatedRenderings int
	// RejectedRaters counts integrity-check rejections.
	RejectedRaters int
	// StepTwoChunks lists the chunks selected for step-two investigation.
	StepTwoChunks []int
}

// Profiler runs §4's pipeline against a rater population.
type Profiler struct {
	// Population supplies the raters.
	Population *mos.Population
	// Params tunes the two-step scheduler.
	Params SchedulerParams
	// Cost prices the campaign.
	Cost CostModel
	// Quality is the per-chunk kernel used in weight inference.
	Quality qoe.QualityParams
}

// NewProfiler returns a Profiler with the paper's default parameters.
func NewProfiler(pop *mos.Population) *Profiler {
	return &Profiler{
		Population: pop,
		Params:     DefaultSchedulerParams(),
		Cost:       DefaultCostModel(),
		Quality:    qoe.DefaultQualityParams(),
	}
}

// WindowChunks is the rating-clip length in chunks (24 seconds). Raters are
// shown short clips around each probed chunk instead of whole videos: a
// single incident on a 24-second clip moves MOS by tenths of the scale
// (Fig 1), where the same incident diluted over minutes would drown in
// rater noise — and short clips are what keep per-video profiling near the
// paper's ~$31/minute price point.
const WindowChunks = 6

// windowStart returns the clip start so that chunk i sits inside a
// WindowChunks-long window.
func windowStart(v *video.Video, i int) int {
	start := i - WindowChunks/3
	if start < 0 {
		start = 0
	}
	if start+WindowChunks > v.NumChunks() {
		start = v.NumChunks() - WindowChunks
		if start < 0 {
			start = 0
		}
	}
	return start
}

// windowRating is the outcome of one windowed rating task: the regression
// row plus the accounting the campaign absorbs after the fan-out joins.
type windowRating struct {
	row       weightRow
	rendering *qoe.Rendering
	raters    int
	rejected  int
}

// rateWindowAt cuts the clip around chunk, injects the incident there,
// rates it at the caller-assigned rater offset, and returns the regression
// row in the full video's chunk space. It does not mutate the campaign, so
// rating tasks with precomputed offsets run concurrently in any order.
func (pr *Profiler) rateWindowAt(camp *Campaign, v *video.Video, chunk int, inc Incident, raters, offset int) (windowRating, error) {
	start := windowStart(v, chunk)
	end := start + WindowChunks
	if end > v.NumChunks() {
		end = v.NumChunks()
	}
	clip, err := v.Excerpt(start, end)
	if err != nil {
		return windowRating{}, fmt.Errorf("crowd: window for chunk %d of %q: %w", chunk, v.Name, err)
	}
	r, err := inc.Apply(clip, chunk-start)
	if err != nil {
		return windowRating{}, err
	}
	rr, rejected, err := camp.RateAt(r, raters, offset)
	if err != nil {
		return windowRating{}, err
	}
	nWin := clip.NumChunks()
	deficits := make([]float64, v.NumChunks())
	for j := 0; j < nWin; j++ {
		deficits[start+j] = qoe.ChunkDeficit(pr.Quality, r, j) / float64(nWin)
	}
	return windowRating{
		row:       weightRow{deficits: deficits, mos: rr.MOS},
		rendering: r,
		raters:    raters,
		rejected:  rejected,
	}, nil
}

// windowTask is one scheduled rating: which chunk, which incident, how
// many raters, and the precomputed rater window it owns.
type windowTask struct {
	chunk  int
	inc    Incident
	raters int
	offset int
}

// windowStride is the slot spacing between consecutive rating tasks.
// CollectMOS consumes one extra slot per rejected rater, so windows sized
// exactly `raters` would overlap under rejection and adjacent tasks would
// share (rater, slot) noise events. Doubling the window keeps tasks'
// slot ranges disjoint up to a 50% rejection rate — far beyond the
// integrity filters' real-world few percent.
func windowStride(raters int) int { return 2 * raters }

// rateAll fans the rating tasks across workers, then absorbs rows and
// accounting into the campaign in task order, so campaign totals and the
// regression input are independent of worker count.
func (pr *Profiler) rateAll(camp *Campaign, v *video.Video, tasks []windowTask, stage string) ([]weightRow, error) {
	outcomes := make([]windowRating, len(tasks))
	if err := par.ForEach(len(tasks), func(i int) error {
		o, err := pr.rateWindowAt(camp, v, tasks[i].chunk, tasks[i].inc, tasks[i].raters, tasks[i].offset)
		if err != nil {
			return fmt.Errorf("crowd: %s of %q: %w", stage, v.Name, err)
		}
		outcomes[i] = o
		return nil
	}); err != nil {
		return nil, err
	}
	rows := make([]weightRow, len(outcomes))
	for i, o := range outcomes {
		rows[i] = o.row
		camp.Account(o.rendering, o.raters, o.rejected)
	}
	return rows, nil
}

// stepTwoIncidents enumerates the incidents probed on selected chunks: B
// bitrate drops (spread over the lower rungs) and F rebuffer durations.
func stepTwoIncidents(v *video.Video, p SchedulerParams) []Incident {
	var out []Incident
	// Drop rungs spread across the ladder below the top, lowest first.
	nRungs := len(v.Ladder) - 1
	b := p.BitrateLevels
	if b > nRungs {
		b = nRungs
	}
	for k := 0; k < b; k++ {
		rung := k * nRungs / b
		out = append(out, Incident{Kind: KindBitrateDrop, Rung: rung, DropChunks: 1})
	}
	for f := 1; f <= p.RebufferLevels; f++ {
		out = append(out, Incident{Kind: KindRebuffer, StallSec: float64(f)})
	}
	return out
}

// Profile runs the two-step scheduler on v and returns the inferred weights
// and campaign accounting. Step one rates a windowed clip with a 1-second
// rebuffer at every chunk (M1 raters each); step two re-probes the chunks
// whose estimated weight deviates from average by more than α with B
// bitrate drops and F rebuffer durations (M2 raters each).
//
// Rating tasks within each step are sharded per chunk across workers. Each
// task owns a precomputed rater window (task index × raters per task), so
// the inferred weights and the campaign bill are bit-identical however
// many workers run them.
func (pr *Profiler) Profile(v *video.Video) (*Profile, error) {
	params := pr.Params
	params.defaults()
	camp, err := NewCampaign(pr.Population, pr.Cost)
	if err != nil {
		return nil, err
	}

	// Step one.
	stepOne := make([]windowTask, v.NumChunks())
	for chunk := range stepOne {
		stepOne[chunk] = windowTask{
			chunk:  chunk,
			inc:    Incident{Kind: KindRebuffer, StallSec: 1},
			raters: params.M1,
			offset: chunk * windowStride(params.M1),
		}
	}
	rows, err := pr.rateAll(camp, v, stepOne, "step one")
	if err != nil {
		return nil, err
	}
	weights, err := solveWeights(v.NumChunks(), rows, params.RidgeLambda)
	if err != nil {
		return nil, err
	}

	// Step two: focus on chunks with clearly high or low sensitivity.
	var probe []int
	for i, w := range weights {
		if math.Abs(w-1) > params.Alpha {
			probe = append(probe, i)
		}
	}
	if len(probe) > 0 {
		stepTwoBase := v.NumChunks() * windowStride(params.M1)
		incidents := stepTwoIncidents(v, params)
		var stepTwo []windowTask
		for _, chunk := range probe {
			for _, inc := range incidents {
				// Step one already covered the 1-second rebuffer.
				if inc.Kind == KindRebuffer && inc.StallSec == 1 {
					continue
				}
				stepTwo = append(stepTwo, windowTask{
					chunk:  chunk,
					inc:    inc,
					raters: params.M2,
					offset: stepTwoBase + len(stepTwo)*windowStride(params.M2),
				})
			}
		}
		moreRows, err := pr.rateAll(camp, v, stepTwo, "step two")
		if err != nil {
			return nil, err
		}
		rows = append(rows, moreRows...)
		weights, err = solveWeights(v.NumChunks(), rows, params.RidgeLambda)
		if err != nil {
			return nil, err
		}
	}

	return &Profile{
		VideoName:        v.Name,
		Weights:          weights,
		CostUSD:          camp.CostUSD(),
		CostPerMinuteUSD: camp.CostUSD() / (v.Duration().Minutes()),
		DelayMinutes:     camp.DelayMinutes(),
		Participants:     camp.Participants(),
		RatedRenderings:  len(rows),
		RejectedRaters:   camp.Rejected,
		StepTwoChunks:    probe,
	}, nil
}

// ProfileFull runs the unpruned strawman (Fig 12c's "w/o cost pruning"):
// every chunk × every lower rung × rebuffer durations 1..5s, each windowed
// clip rated by 30 raters, with weights inferred from the full set. The
// chunk × incident grid is sharded across workers like Profile's steps.
func (pr *Profiler) ProfileFull(v *video.Video) (*Profile, error) {
	params := pr.Params
	params.defaults()
	camp, err := NewCampaign(pr.Population, pr.Cost)
	if err != nil {
		return nil, err
	}
	const fullRaters = 30
	var tasks []windowTask
	for chunk := 0; chunk < v.NumChunks(); chunk++ {
		var incidents []Incident
		for rung := 0; rung < len(v.Ladder)-1; rung++ {
			incidents = append(incidents, Incident{Kind: KindBitrateDrop, Rung: rung, DropChunks: 1})
		}
		for stall := 1; stall <= 5; stall++ {
			incidents = append(incidents, Incident{Kind: KindRebuffer, StallSec: float64(stall)})
		}
		for _, inc := range incidents {
			tasks = append(tasks, windowTask{
				chunk:  chunk,
				inc:    inc,
				raters: fullRaters,
				offset: len(tasks) * windowStride(fullRaters),
			})
		}
	}
	rows, err := pr.rateAll(camp, v, tasks, "full profile")
	if err != nil {
		return nil, err
	}
	weights, err := solveWeights(v.NumChunks(), rows, params.RidgeLambda)
	if err != nil {
		return nil, err
	}
	return &Profile{
		VideoName:        v.Name,
		Weights:          weights,
		CostUSD:          camp.CostUSD(),
		CostPerMinuteUSD: camp.CostUSD() / v.Duration().Minutes(),
		DelayMinutes:     camp.DelayMinutes(),
		Participants:     camp.Participants(),
		RatedRenderings:  len(rows),
		RejectedRaters:   camp.Rejected,
	}, nil
}

// ProfileAll profiles every video, returning a name-indexed weight map
// ready for qoe.NewSenseiModel, plus the per-video profiles. Campaigns are
// independent per video, so videos profile concurrently on top of each
// profile's own per-chunk sharding.
func (pr *Profiler) ProfileAll(videos []*video.Video) (map[string][]float64, []*Profile, error) {
	profiles := make([]*Profile, len(videos))
	if err := par.ForEach(len(videos), func(i int) error {
		p, err := pr.Profile(videos[i])
		if err != nil {
			return fmt.Errorf("crowd: profiling %q: %w", videos[i].Name, err)
		}
		profiles[i] = p
		return nil
	}); err != nil {
		return nil, nil, err
	}
	weights := make(map[string][]float64, len(videos))
	for _, p := range profiles {
		weights[p.VideoName] = p.Weights
	}
	return weights, profiles, nil
}
