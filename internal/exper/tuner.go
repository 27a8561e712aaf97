package exper

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/simtime"
	"repro/internal/tuner"
)

// The adversarial tuner sweep: a machine where the static Section 6
// thresholds pick the wrong scheme, so only measurement can find the right
// one. The "machine" has pathologically expensive scatter/gather entries
// (SGEPost/NICSGECost far above the calibrated testbed — think a NIC without
// real SGE offload) and a mis-tuned AutoGatherThreshold, so static Auto
// routes a fine-grained vector onto RWG-UP, whose per-run SGE cost is ruinous
// there, while the staged pipeline is an order of magnitude faster. The
// tuner, seeded with the (wrong) default-model priors, must discover the
// crossover from latency feedback alone.
//
// All timings are virtual (sim backend), so the sweep is deterministic and
// BENCH_tuner.json regenerates byte-identically, all of it, which is what the
// guard compares.

// tunerWorkloadType is a 16 KB vector of 256 runs x 64 bytes: runs long
// enough to clear the mis-tuned gather threshold, numerous enough to make
// per-run SGE costs dominate.
func tunerWorkloadType() *datatype.Type {
	return datatype.Must(datatype.TypeVector(256, 16, 64, datatype.Int32))
}

const tunerWorkloadDesc = "vector(256 x 16 of 64, MPI_INT), 16 KB payload, 64 B runs"

// adversarialTunerConfig builds the mis-modeled machine. sel is the adaptive
// selector for the Auto runs (nil for fixed schemes and static Auto).
func adversarialTunerConfig(scheme core.Scheme, sel core.SchemeSelector) mpi.Config {
	return worldConfig(2, scheme, expMem2, func(c *mpi.Config) {
		c.Model.SGEPost = 4 * simtime.Microsecond
		c.Model.NICSGECost = 3 * simtime.Microsecond
		c.Core.AutoGatherThreshold = 32
		c.Selector = sel
	})
}

// tunerMode sends msgs rendezvous messages rank0 -> rank1 on the adversarial
// machine, each acknowledged by one byte, and reduces the per-message virtual
// round times to the mode's row.
func tunerMode(mode string, scheme core.Scheme, sel core.SchemeSelector, msgs int) (TunerRow, error) {
	dt := tunerWorkloadType()
	lats := make([]float64, 0, msgs)
	res, err := pingPong(adversarialTunerConfig(scheme, sel), 0, msgs, func(p *mpi.Proc) halves {
		data := msg{allocFor(p, dt, 1), 1, dt, 0}
		ack := msg{p.Mem().MustAlloc(8), 1, datatype.Byte, 1}
		if p.Rank() == 1 {
			return halves{sends(p, ack), recvs(p, data)}
		}
		fillBuf(p, data.buf, dt, 1, 1)
		send, recv := sends(p, data), recvs(p, ack)
		var t0 simtime.Time
		return halves{
			send: func() error { t0 = p.Now(); return send() },
			recv: func() error {
				err := recv()
				lats = append(lats, p.Now().Sub(t0).Micros())
				return err
			},
		}
	})
	if err != nil {
		return TunerRow{}, fmt.Errorf("exper: %s %v: %w", mode, scheme, err)
	}
	row := TunerRow{Mode: mode, Msgs: msgs, MeanUS: meanOf(lats), LastQMeanUS: meanOf(lastQuartile(lats))}
	if scheme != core.SchemeAuto {
		row.Scheme = scheme.String()
	}
	if sel != nil {
		ctr := res.world.Endpoint(1).Counters().Snapshot()
		row.Explorations = ctr.TunerExplorations
		row.Exploitations = ctr.TunerExploitations
		row.RegretMS = float64(ctr.TunerRegretNs) / 1e6
	}
	return row, nil
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// lastQuartile returns the final quarter of the series.
func lastQuartile(v []float64) []float64 {
	return v[len(v)-len(v)/4:]
}

// TunerRow is one mode's measurement in the adversarial sweep.
type TunerRow struct {
	Mode          string  `json:"mode"` // "fixed", "static-auto", "tuned", "warm-start"
	Scheme        string  `json:"scheme,omitempty"`
	Msgs          int     `json:"msgs"`
	MeanUS        float64 `json:"mean_us"`        // virtual round time per message
	LastQMeanUS   float64 `json:"last_q_mean_us"` // mean over the final quartile
	Explorations  int64   `json:"explorations,omitempty"`
	Exploitations int64   `json:"exploitations,omitempty"`
	RegretMS      float64 `json:"regret_ms,omitempty"` // summed regret proxy
}

// TunerReport is the BENCH_tuner.json document.
type TunerReport struct {
	Benchmark        string     `json:"benchmark"`
	Workload         string     `json:"workload"`
	Machine          string     `json:"machine"`
	Msgs             int        `json:"msgs"`
	Rows             []TunerRow `json:"rows"`
	BestFixed        string     `json:"best_fixed"`
	BestFixedUS      float64    `json:"best_fixed_us"`
	StaticVsBest     float64    `json:"static_vs_best"`       // static-auto mean / best fixed mean
	TunedLastQVsBest float64    `json:"tuned_last_q_vs_best"` // tuned last-quartile mean / best fixed mean
	WarmVsBest       float64    `json:"warm_vs_best"`         // warm-start mean / best fixed mean

	// Learned is the cold run's exported tuning table (dtbench -tune-out).
	Learned []byte `json:"-"`
}

// simTuner returns a tuner whose table is tagged with the backend it is
// measured on, so it can never warm-start another.
func simTuner(explore bool) *tuner.Tuner {
	cfg := tuner.DefaultConfig()
	cfg.Explore = explore
	cfg.Backend = mpi.BackendSim
	return tuner.New(cfg)
}

// tunerSweep is tunerRun at dtbench's -tuner-msgs.
func tunerSweep(_ []string, o Options) (Doc, error) { return tunerRun(o.TunerMsgs) }

// tunerRun runs the adversarial sweep: every fixed scheme, static Auto,
// adaptive Auto (cold tuner), and warm-started Auto replaying the cold run's
// exported table with exploration off.
func tunerRun(msgs int) (*TunerReport, error) {
	if msgs <= 0 {
		msgs = 160
	}
	rep := &TunerReport{
		Benchmark: "adaptive-tuner-adversarial",
		Workload:  tunerWorkloadDesc,
		Machine:   "SGEPost=4us NICSGECost=3us (crippled scatter/gather), AutoGatherThreshold=32 (mis-tuned)",
		Msgs:      msgs,
	}
	for _, s := range allSchemes {
		row, err := tunerMode("fixed", s, nil, msgs)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
		if rep.BestFixed == "" || row.MeanUS < rep.BestFixedUS {
			rep.BestFixed, rep.BestFixedUS = row.Scheme, row.MeanUS
		}
	}
	static, err := tunerMode("static-auto", core.SchemeAuto, nil, msgs)
	if err != nil {
		return nil, err
	}

	// Cold adaptive run: priors come from the *default* model — the tuner
	// believes gather is cheap, exactly like the static thresholds do, and
	// must learn the truth from feedback.
	cold := simTuner(true)
	tuned, err := tunerMode("tuned", core.SchemeAuto, cold, msgs)
	if err != nil {
		return nil, err
	}
	if rep.Learned, err = cold.ExportJSON(); err != nil {
		return nil, err
	}
	warm, err := TunerWarmRun(rep.Learned, msgs)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, static, tuned, *warm)

	if rep.BestFixedUS > 0 {
		rep.StaticVsBest = static.MeanUS / rep.BestFixedUS
		rep.TunedLastQVsBest = tuned.LastQMeanUS / rep.BestFixedUS
		rep.WarmVsBest = warm.MeanUS / rep.BestFixedUS
	}
	return rep, nil
}

// TunerWarmRun replays the adversarial workload with a fresh tuner
// warm-started from an exported table, exploration off — the
// calibrate-then-warm-start workflow, and the dtbench -tune-in path.
func TunerWarmRun(table []byte, msgs int) (*TunerRow, error) {
	if msgs <= 0 {
		msgs = 160
	}
	wt := simTuner(false)
	if err := wt.ImportJSON(table); err != nil {
		return nil, err
	}
	row, err := tunerMode("warm-start", core.SchemeAuto, wt, msgs)
	return &row, err
}

// Table renders the report as an aligned text table.
func (rep *TunerReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# adaptive tuner, adversarial machine (%s)\n", rep.Machine)
	fmt.Fprintf(&b, "# workload: %s, %d messages\n", rep.Workload, rep.Msgs)
	fmt.Fprintf(&b, "%-12s %-10s %12s %14s %9s %9s %10s\n",
		"mode", "scheme", "mean us", "last-q us", "explore", "exploit", "regret ms")
	for _, r := range rep.Rows {
		scheme := r.Scheme
		if scheme == "" {
			scheme = "-"
		}
		fmt.Fprintf(&b, "%-12s %-10s %12.2f %14.2f %9d %9d %10.2f\n",
			r.Mode, scheme, r.MeanUS, r.LastQMeanUS, r.Explorations, r.Exploitations, r.RegretMS)
	}
	fmt.Fprintf(&b, "best fixed %s at %.2f us; static auto %.2fx, tuned last quartile %.2fx, warm start %.2fx\n",
		rep.BestFixed, rep.BestFixedUS, rep.StaticVsBest, rep.TunedLastQVsBest, rep.WarmVsBest)
	return b.String()
}
