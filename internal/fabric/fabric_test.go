package fabric

import (
	"fmt"
	"testing"

	"ssmp/internal/mem"
	"ssmp/internal/msg"
	"ssmp/internal/network"
	"ssmp/internal/sim"
)

func TestSendCountsAndDelivers(t *testing.T) {
	eng := sim.NewEngine()
	nw := network.New(eng, network.DefaultConfig(4))
	f := New(eng, nw, DefaultTiming())
	var got *msg.Msg
	for i := 0; i < 4; i++ {
		i := i
		nw.Attach(i, func(p any) {
			if i == 2 {
				got = p.(*msg.Msg)
			}
		})
	}
	f.Send(msg.Msg{Kind: msg.LockReq, Src: 0, Dst: 2})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Kind != msg.LockReq {
		t.Fatal("message not delivered")
	}
	if f.Coll.Kind(msg.LockReq) != 1 {
		t.Fatal("message not counted")
	}
}

// TestSendRecyclesRecords: a delivered message's record goes back to the
// free list and carries a later message, so steady sending allocates
// nothing, and a fault-plane duplicate, one record delivered twice, goes
// back once.
func TestSendRecyclesRecords(t *testing.T) {
	eng := sim.NewEngine()
	cfg := network.DefaultConfig(4)
	cfg.Faults = network.FaultConfig{Seed: 3, Rates: network.FaultRates{Dup: 0.5}}
	f := New(eng, network.New(eng, cfg), DefaultTiming())
	sent, got := 0, 0
	for i := 0; i < 4; i++ {
		f.Attach(i, func(m *msg.Msg) {
			if len(m.Data) != 4 || m.Data[3] != 4 {
				t.Fatalf("delivered payload %v", m.Data)
			}
			got++
		})
	}
	data := []mem.Word{1, 2, 3, 4}
	round := func() {
		for i := 0; i < 8; i++ {
			f.Send(msg.Msg{Kind: msg.UpdateProp, Src: 0, Dst: 1 + i%3, Data: data})
			sent++
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Errorf("a round of sends made %v allocations, want 0", allocs)
	}
	if got <= sent {
		t.Fatalf("%d deliveries of %d messages: no duplicate", got, sent)
	}
	onList := map[*msg.Msg]bool{}
	for _, m := range f.spare {
		if onList[m] {
			t.Fatal("a record is on the free list twice")
		}
		onList[m] = true
	}
}

// TestAfterWordOverlapping: completions in flight at once each deliver
// their own word at their own time, in any firing order, and freed slots
// are reused rather than the table growing per completion.
func TestAfterWordOverlapping(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, network.New(eng, network.DefaultConfig(2)), DefaultTiming())
	var got []string
	done := func(w mem.Word) { got = append(got, fmt.Sprintf("%d@%d", w, eng.Now())) }
	for round := mem.Word(0); round < 3; round++ {
		f.AfterWord(3, done, 30+round)
		f.AfterWord(1, done, 10+round)
		f.AfterWord(2, done, 20+round)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	want := "[10@1 20@2 30@3 11@4 21@5 31@6 12@7 22@8 32@9]"
	if fmt.Sprint(got) != want {
		t.Fatalf("completions %v, want %s", got, want)
	}
	if n := len(f.hits.slots); n != 3 {
		t.Fatalf("slot table grew to %d for 3 in flight, want 3", n)
	}
}

// stationLog is a sim.Receiver that logs which message each delivery
// carried and when it came.
type stationLog struct {
	eng *sim.Engine
	got []string
}

func (l *stationLog) OnDeliver(p any) {
	l.got = append(l.got, fmt.Sprintf("%d@%d", p.(*msg.Msg).Aux, l.eng.Now()))
}

func TestStationSerializes(t *testing.T) {
	eng := sim.NewEngine()
	nw := network.New(eng, network.DefaultConfig(2))
	f := New(eng, nw, Timing{CacheHit: 1, TDir: 3, TMem: 4})
	s := NewStation(f)
	l := &stationLog{eng: eng}
	s.Process(l, &msg.Msg{Aux: 1})
	s.Process(l, &msg.Msg{Aux: 2})
	s.ProcessAfter(4, l, &msg.Msg{Aux: 3})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// t_D = 3: the first message at 3, the second queued to 6, the third
	// at 9+4=13, each delivered to the receiver with its own message.
	if want := "[1@3 2@6 3@13]"; fmt.Sprint(l.got) != want {
		t.Fatalf("deliveries %v, want %s", l.got, want)
	}
	// Occupancy: 3 + 3 + (3+4): the memory read holds the station.
	if s.Busy() != 13 {
		t.Fatalf("Busy = %d, want 13", s.Busy())
	}
}

func TestDefaultTimingMatchesTable4(t *testing.T) {
	tm := DefaultTiming()
	if tm.CacheHit != 1 || tm.TDir != 1 || tm.TMem != 4 {
		t.Fatalf("DefaultTiming = %+v, want 1/1/4 per Table 4", tm)
	}
}
