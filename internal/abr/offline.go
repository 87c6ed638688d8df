package abr

import (
	"sensei/internal/player"
	"sensei/internal/qoe"
	"sensei/internal/trace"
)

// oracleHorizonSec is how far ahead OraclePredictor takes the trace's mean:
// roughly the MPC horizon of 5 four-second chunks.
const oracleHorizonSec = 20

// OraclePredictor "predicts" throughput by reading the actual future of the
// trace — the idealized setting of §2.4, where both ABRs receive the entire
// throughput trace in advance to eliminate prediction error as a
// confounder. It must only be paired with sessions replaying the same
// trace.
type OraclePredictor struct {
	// Trace is the trace the session replays.
	Trace *trace.Trace

	// nowSec is refreshed by the owning oracle MPC before each prediction.
	nowSec float64
}

// Predict implements Predictor with a single certain scenario that replays
// the true trace from the session's current position, so planned download
// times match reality exactly.
func (o *OraclePredictor) Predict(_ []float64, dst []Scenario) []Scenario {
	cur := trace.NewCursor(o.Trace)
	cur.Advance(o.nowSec)
	return append(dst, Scenario{
		Bps:      cur.MeanAhead(oracleHorizonSec),
		P:        1,
		Exact:    o.Trace,
		StartSec: o.nowSec,
	})
}

// OracleMPC wraps MPC so the oracle predictor tracks the session's trace
// clock. It implements the two idealized ABRs of §2.4: with Sensitivity
// disabled it maximizes the content-blind objective (the
// "dynamic-sensitivity-unaware" ABR); enabled, it maximizes the weighted
// objective and may schedule proactive stalls (the "aware" ABR).
type OracleMPC struct {
	MPC
	oracle *OraclePredictor
}

// NewOracle builds an idealized full-knowledge ABR over tr. aware selects
// the sensitivity-aware variant.
func NewOracle(tr *trace.Trace, aware bool) *OracleMPC {
	o := &OraclePredictor{Trace: tr}
	m := &OracleMPC{oracle: o}
	m.Horizon = 6
	m.Predictor = o
	m.Quality = qoe.DefaultQualityParams()
	if aware {
		m.Sensitivity = true
		m.PreStallChoices = []float64{0, 1, 2}
	}
	return m
}

// Name implements player.Algorithm.
func (m *OracleMPC) Name() string {
	if m.Sensitivity {
		return "Oracle-aware"
	}
	return "Oracle-unaware"
}

// Decide implements player.Algorithm, forwarding the trace clock to the
// oracle predictor before planning.
func (m *OracleMPC) Decide(s *player.State) player.Decision {
	m.oracle.nowSec = s.TraceTimeSec
	return m.MPC.Decide(s)
}

// Compile-time interface check.
var _ player.Algorithm = (*OracleMPC)(nil)
