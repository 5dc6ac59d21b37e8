package workload

import (
	"testing"

	"ssmp/internal/core"
	"ssmp/internal/mem"
)

func mkCfg(procs int, proto core.Protocol) core.Config {
	cfg := core.DefaultConfig(procs)
	cfg.Protocol = proto
	cfg.CacheSets = 64
	return cfg
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.HitRatio = 1.5
	if bad.Validate() == nil {
		t.Error("HitRatio=1.5 accepted")
	}
	bad = DefaultParams()
	bad.SharedBlocks = 0
	if bad.Validate() == nil {
		t.Error("SharedBlocks=0 accepted")
	}
}

func TestLayoutSeparatesRegions(t *testing.T) {
	p := DefaultParams()
	geom := mem.Geometry{BlockWords: 4, Nodes: 8}
	l := NewLayout(geom, p)
	blocks := map[mem.Block]string{}
	add := func(a mem.Addr, what string) {
		b := geom.BlockOf(a)
		if prev, clash := blocks[b]; clash && prev != what {
			t.Fatalf("block %d shared between %s and %s", b, prev, what)
		}
		blocks[b] = what
	}
	for i := 0; i < p.SharedBlocks; i++ {
		add(l.SharedWord(i, 0), "shared")
	}
	for i := 0; i < p.Locks; i++ {
		add(l.LockAddr(i), "lock")
		add(l.LockAux(i), "lockaux")
	}
	add(l.QueueLock(), "qlock")
	add(l.QueueAux(), "qaux")
	add(l.BarrierAddr(0), "barrier")
	add(l.BarrierCount(), "swcount")
	add(l.BarrierGen(), "swgen")
}

func TestSyncModelRunsOnCBL(t *testing.T) {
	procs := 4
	cfg := mkCfg(procs, core.ProtoCBL)
	p := DefaultParams()
	p.Grain = 16
	layout := NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: procs}, p)
	progs := SyncModel(procs, 5, p, layout, CBLKit(layout, procs), 1)
	res, err := Run(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Messages == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestSyncModelRunsOnWBI(t *testing.T) {
	procs := 4
	cfg := mkCfg(procs, core.ProtoWBI)
	p := DefaultParams()
	p.Grain = 16
	layout := NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: procs}, p)
	progs := SyncModel(procs, 5, p, layout, WBIKit(layout, procs, false), 1)
	if _, err := Run(cfg, progs); err != nil {
		t.Fatal(err)
	}
}

func TestSyncModelDeterministic(t *testing.T) {
	run := func() uint64 {
		procs := 4
		cfg := mkCfg(procs, core.ProtoCBL)
		p := DefaultParams()
		p.Grain = 16
		layout := NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: procs}, p)
		progs := SyncModel(procs, 5, p, layout, CBLKit(layout, procs), 7)
		res, err := Run(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Cycles)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic sync model: %d vs %d", a, b)
	}
}

func TestSyncModelSeedMatters(t *testing.T) {
	run := func(seed uint64) uint64 {
		procs := 4
		cfg := mkCfg(procs, core.ProtoCBL)
		p := DefaultParams()
		p.Grain = 16
		layout := NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: procs}, p)
		progs := SyncModel(procs, 5, p, layout, CBLKit(layout, procs), seed)
		res, err := Run(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Cycles)
	}
	if run(1) == run(2) {
		t.Log("warning: two seeds produced identical cycles (possible but unlikely)")
	}
}

func TestWorkQueueExecutesAllTasks(t *testing.T) {
	procs := 4
	cfg := mkCfg(procs, core.ProtoCBL)
	p := DefaultParams()
	p.Grain = 16
	layout := NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: procs}, p)
	progs, stats := WorkQueue(procs, 20, 0, p, layout, CBLKit(layout, procs), 1)
	if _, err := Run(cfg, progs); err != nil {
		t.Fatal(err)
	}
	if stats.TasksExecuted != 20 {
		t.Fatalf("executed %d tasks, want 20", stats.TasksExecuted)
	}
}

func TestWorkQueueSpawnedTasksAlsoRun(t *testing.T) {
	procs := 4
	cfg := mkCfg(procs, core.ProtoCBL)
	p := DefaultParams()
	p.Grain = 8
	layout := NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: procs}, p)
	progs, stats := WorkQueue(procs, 20, 0.3, p, layout, CBLKit(layout, procs), 1)
	if _, err := Run(cfg, progs); err != nil {
		t.Fatal(err)
	}
	if stats.Spawned == 0 {
		t.Fatal("no tasks spawned with spawnProb=0.3")
	}
	if stats.TasksExecuted != 20+stats.Spawned {
		t.Fatalf("executed %d, want %d", stats.TasksExecuted, 20+stats.Spawned)
	}
}

func TestWorkQueueRunsOnWBI(t *testing.T) {
	procs := 4
	cfg := mkCfg(procs, core.ProtoWBI)
	p := DefaultParams()
	p.Grain = 16
	layout := NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: procs}, p)
	progs, stats := WorkQueue(procs, 12, 0, p, layout, WBIKit(layout, procs, true), 1)
	if _, err := Run(cfg, progs); err != nil {
		t.Fatal(err)
	}
	if stats.TasksExecuted != 12 {
		t.Fatalf("executed %d tasks, want 12", stats.TasksExecuted)
	}
}

func TestWorkQueueMoreProcsFasterAtCoarseGrain(t *testing.T) {
	// With coarse tasks and modest processor counts, the work-queue model
	// must show speedup (this is the regime where even WBI scales).
	run := func(procs int) uint64 {
		cfg := mkCfg(procs, core.ProtoCBL)
		p := DefaultParams()
		p.Grain = CoarseGrain
		layout := NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: procs}, p)
		progs, _ := WorkQueue(procs, 32, 0, p, layout, CBLKit(layout, procs), 1)
		res, err := Run(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Cycles)
	}
	t2, t8 := run(2), run(8)
	if t8 >= t2 {
		t.Fatalf("no speedup: 2 procs %d cycles, 8 procs %d cycles", t2, t8)
	}
}

func TestSyncModelBCNotSlowerThanSC(t *testing.T) {
	run := func(c core.Consistency) uint64 {
		procs := 4
		cfg := mkCfg(procs, core.ProtoCBL)
		cfg.Consistency = c
		p := DefaultParams()
		p.Grain = 32
		layout := NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: procs}, p)
		progs := SyncModel(procs, 5, p, layout, CBLKit(layout, procs), 3)
		res, err := Run(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Cycles)
	}
	bc, sc := run(core.BC), run(core.SC)
	if bc > sc {
		t.Fatalf("BC (%d) slower than SC (%d)", bc, sc)
	}
}

func TestJobKitFollowsProtocol(t *testing.T) {
	for _, tc := range []struct {
		proto   core.Protocol
		backoff bool
		want    string
	}{
		{core.ProtoCBL, false, "CBL"},
		{core.ProtoCBL, true, "CBL"},
		{core.ProtoWBI, false, "WBI"},
		{core.ProtoWBI, true, "WBI-backoff"},
	} {
		for _, queue := range []bool{false, true} {
			j := Job{Queue: queue, Params: DefaultParams(), Episodes: 2, Tasks: 8, Backoff: tc.backoff, Seed: 1}
			cfg := mkCfg(4, tc.proto)
			progs, kit := j.Programs(cfg)
			if kit.Name != tc.want || len(progs) != 4 {
				t.Fatalf("%v backoff=%v queue=%v: kit %s, %d programs", tc.proto, tc.backoff, queue, kit.Name, len(progs))
			}
			if _, err := Run(cfg, progs); err != nil {
				t.Fatal(err)
			}
		}
	}
}
