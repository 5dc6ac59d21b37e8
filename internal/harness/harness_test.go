package harness

import (
	"strings"
	"testing"

	"ssmp/internal/analytic"
)

// smallOptions keeps the sweeps cheap for unit tests.
func smallOptions() Options {
	o := DefaultOptions()
	o.Procs = []int{2, 4, 8}
	o.Episodes = 3
	o.Tasks = 24
	o.SpawnProb = 0
	return o
}

// runFigure runs figure n and fails the test if it cannot.
func runFigure(t *testing.T, o Options, n int) Figure {
	t.Helper()
	f, err := o.FigureByNumber(n)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFigure4SeriesComplete(t *testing.T) {
	f := runFigure(t, smallOptions(), 4)
	if len(f.Series) != 5 {
		t.Fatalf("Figure 4 has %d series, want 5", len(f.Series))
	}
	names := map[string]bool{}
	for _, s := range f.Series {
		names[s.Name] = true
		if len(s.Points) != 3 {
			t.Fatalf("series %s has %d points, want 3", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("series %s has nonpositive completion time at %v", s.Name, p.X)
			}
		}
	}
	for _, want := range []string{"WBI", "CBL", "Q-WBI", "Q-backoff", "Q-CBL"} {
		if !names[want] {
			t.Fatalf("missing series %s", want)
		}
	}
}

func TestFigure4QueueCBLBeatsWBIUnderContention(t *testing.T) {
	// The paper's headline: under the work-queue model the CBL scheme
	// outperforms WBI as the processor count grows.
	o := smallOptions()
	o.Procs = []int{16}
	f := runFigure(t, o, 4)
	var qWBI, qCBL float64
	for _, s := range f.Series {
		y, ok := s.Y(16)
		if !ok {
			t.Fatalf("series %s missing point", s.Name)
		}
		switch s.Name {
		case "Q-WBI":
			qWBI = y
		case "Q-CBL":
			qCBL = y
		}
	}
	if qCBL >= qWBI {
		t.Fatalf("Q-CBL (%v) not faster than Q-WBI (%v) at 16 procs", qCBL, qWBI)
	}
}

func TestFigure6BCNotSlowerThanSC(t *testing.T) {
	o := smallOptions()
	o.Procs = []int{4, 8}
	f := runFigure(t, o, 6)
	if len(f.Series) != 2 {
		t.Fatalf("Figure 6 has %d series", len(f.Series))
	}
	for _, x := range []float64{4, 8} {
		sc, _ := f.Series[0].Y(x)
		bc, _ := f.Series[1].Y(x)
		if bc > sc {
			t.Fatalf("BC (%v) slower than SC (%v) at %v procs", bc, sc, x)
		}
	}
}

func TestFigureByNumber(t *testing.T) {
	o := smallOptions()
	o.Procs = []int{2}
	o.Tasks = 8
	o.Episodes = 1
	for _, n := range []int{4, 5, 6, 7} {
		f, err := o.FigureByNumber(n)
		if err != nil {
			t.Fatalf("figure %d: %v", n, err)
		}
		if !strings.Contains(f.Name, "Figure") {
			t.Fatalf("figure %d name = %q", n, f.Name)
		}
		if f.Table() == "" || f.CSV() == "" {
			t.Fatal("empty rendering")
		}
	}
	if _, err := o.FigureByNumber(3); err == nil {
		t.Fatal("figure 3 accepted")
	}
}

func TestTable2SimShape(t *testing.T) {
	rows, err := smallOptions().Table2Sim(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]Table2Measured{}
	for _, r := range rows {
		byName[r.Scheme] = r
		// Ten iterations with possibly one-iteration-stale reads
		// (buffered consistency) converge to ~1e-3; full convergence
		// is exercised in the workload package's solver tests.
		if r.Residual > 1e-2 {
			t.Fatalf("%s residual = %g", r.Scheme, r.Residual)
		}
	}
	// Shape: invalidation schemes move more blocks than read-update
	// (Table 2's read row dominates), and only they invalidate.
	if byName["read-update"].Blocks >= byName["inv-II"].Blocks {
		t.Fatalf("read-update blocks %v >= inv-II %v",
			byName["read-update"].Blocks, byName["inv-II"].Blocks)
	}
	if byName["read-update"].Invs != 0 {
		t.Fatal("read-update produced invalidations")
	}
	if byName["inv-I"].Invs == 0 && byName["inv-II"].Invs == 0 {
		t.Fatal("invalidation schemes produced no invalidations")
	}
	if byName["read-update"].Words == 0 {
		t.Fatal("read-update produced no word transfers (write-globals)")
	}
	out := FormatTable2Sim(8, 10, rows)
	if !strings.Contains(out, "read-update") || !strings.Contains(out, "inv-II") {
		t.Fatalf("format output: %q", out)
	}
}

func TestTable3SimShape(t *testing.T) {
	rows, err := smallOptions().Table3Sim(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	get := func(s analytic.Scenario, scheme string) Table3Measured {
		for _, r := range rows {
			if r.Scenario == s && r.Scheme == scheme {
				return r
			}
		}
		t.Fatalf("missing %s/%s", s, scheme)
		return Table3Measured{}
	}
	// Serial CBL lock: exactly the model's 3 messages.
	if got := get(analytic.SerialLock, "CBL").Messages; got != 3 {
		t.Fatalf("serial CBL messages = %d, want 3", got)
	}
	// Parallel lock: CBL's message count is O(n), WBI's grows much
	// faster (the paper's O(n) vs O(n^2) claim).
	pc := get(analytic.ParallelLock, "CBL")
	pw := get(analytic.ParallelLock, "WBI")
	if pc.Messages >= pw.Messages {
		t.Fatalf("parallel CBL messages (%d) not below WBI (%d)", pc.Messages, pw.Messages)
	}
	if pc.Messages > 6*8 {
		t.Fatalf("parallel CBL messages = %d, want <= 6n = 48", pc.Messages)
	}
	// CBL barrier: 2 messages per processor, exactly as modeled.
	if got := get(analytic.BarrierRequest, "CBL").Messages; got != 2 {
		t.Fatalf("CBL barrier request per-proc messages = %d, want 2", got)
	}
	if got := get(analytic.BarrierNotify, "CBL").Messages; got != 16 {
		t.Fatalf("CBL barrier total messages = %d, want 2n = 16", got)
	}
	out := FormatTable3Sim(8, rows)
	if !strings.Contains(out, "parallel lock") {
		t.Fatalf("format output: %q", out)
	}
}

func TestParallelLockScalingIsLinearForCBL(t *testing.T) {
	o := smallOptions()
	m8 := func(procs int) uint64 {
		rows, err := o.Table3Sim(procs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Scenario == analytic.ParallelLock && r.Scheme == "CBL" {
				return r.Messages
			}
		}
		return 0
	}
	a := m8(4)
	b := m8(16)
	// 4x the processors should cost ~4x the messages (not 16x).
	if b > a*6 {
		t.Fatalf("CBL parallel-lock messages grew superlinearly: %d -> %d", a, b)
	}
}

func TestUtilizationFigure(t *testing.T) {
	o := smallOptions()
	o.Procs = []int{2, 8}
	f, err := o.UtilizationFigure(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(f.Series))
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Y <= 0 || p.Y > 100 {
				t.Fatalf("%s utilization %v%% out of range", s.Name, p.Y)
			}
		}
	}
	// More contention -> lower utilization for the hardware-lock machine,
	// whose waits are attributed to synchronization stall.
	for _, s := range f.Series {
		u2, _ := s.Y(2)
		u8, _ := s.Y(8)
		switch s.Name {
		case "Q-CBL":
			if u8 >= u2 {
				t.Fatalf("%s utilization did not drop with contention: %v -> %v", s.Name, u2, u8)
			}
		case "Q-backoff":
			// The paper's caveat (§5.2) made measurable: backoff
			// delays execute as local "computation", so the naive
			// utilization of the backoff machine *inflates* under
			// contention even as completion time worsens.
			if u8 <= u2 {
				t.Logf("note: backoff utilization did not inflate (%v -> %v); acceptable but unusual", u2, u8)
			}
		}
	}
}

func TestSerialLockLatencyNearModel(t *testing.T) {
	// Cross-validation: the measured serial-lock completion time should
	// land within a small factor of the paper's closed-form 3t_nw + t_D +
	// t_cs (the simulator adds the grant's memory read and cache access
	// costs the model folds into its constants).
	rows, err := smallOptions().Table3Sim(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Scenario != analytic.SerialLock || r.Scheme != "CBL" {
			continue
		}
		model := r.Model.Time
		measured := float64(r.Cycles)
		if measured < model*0.5 || measured > model*2.5 {
			t.Fatalf("serial CBL lock: measured %v cycles vs model %v — shape broken", measured, model)
		}
		return
	}
	t.Fatal("serial CBL row missing")
}
