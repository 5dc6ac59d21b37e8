package msg

import (
	"testing"

	"ssmp/internal/mem"
)

func TestKindStringsComplete(t *testing.T) {
	for k := Kind(1); k < Kind(NumKinds); k++ {
		if k.String() == "kind?" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "kind?" {
		t.Error("out-of-range kind should stringify as kind?")
	}
}

func TestClassOf(t *testing.T) {
	cases := map[Kind]Class{
		ReadMiss:        Control,
		ReadMissReply:   BlockXfer,
		WriteGlobalReq:  WordXfer,
		WriteGlobalAck:  Control,
		ReadUpdateReply: BlockXfer,
		UpdateProp:      BlockXfer,
		Inv:             Invalidation,
		InvAck:          Control,
		LockReq:         Control,
		LockGrant:       BlockXfer,
		UnlockToHome:    BlockXfer,
		DataS:           BlockXfer,
		GetX:            Control,
		RMWReply:        WordXfer,
		BarrierArrive:   Control,
	}
	for k, want := range cases {
		if got := ClassOf(k); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", k, got, want)
		}
	}
}

func TestClassString(t *testing.T) {
	if Control.String() != "C_R" || WordXfer.String() != "C_W" ||
		Invalidation.String() != "C_I" || BlockXfer.String() != "C_B" {
		t.Error("class notation mismatch with the paper")
	}
}

func TestLockModeCompatible(t *testing.T) {
	if !LockRead.Compatible(LockRead) {
		t.Error("read/read should be compatible")
	}
	if LockRead.Compatible(LockWrite) || LockWrite.Compatible(LockRead) ||
		LockWrite.Compatible(LockWrite) {
		t.Error("any pairing involving a write lock must be incompatible")
	}
	if LockNone.Compatible(LockNone) {
		t.Error("none/none compatibility is meaningless and should be false")
	}
}

func TestMsgWords(t *testing.T) {
	m := &Msg{Kind: LockGrant, Data: make([]mem.Word, 4)}
	if m.Words() != 4 {
		t.Errorf("block msg Words = %d, want 4", m.Words())
	}
	m = &Msg{Kind: WriteGlobalReq}
	if m.Words() != 1 {
		t.Errorf("word msg Words = %d, want 1", m.Words())
	}
	m = &Msg{Kind: LockReq}
	if m.Words() != 0 {
		t.Errorf("control msg Words = %d, want 0", m.Words())
	}
}

func TestLockModeString(t *testing.T) {
	for m, want := range map[LockMode]string{
		LockNone: "none", LockRead: "read-lock", LockWrite: "write-lock",
	} {
		if m.String() != want {
			t.Errorf("LockMode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

// TestRelease: only the last of a record's holders frees it, and a freed
// record reads as KindInvalid with its payload buffer kept for reuse.
func TestRelease(t *testing.T) {
	m := &Msg{Kind: UpdateProp, Src: 1, Block: 9, Data: []mem.Word{1, 2, 3, 4}}
	buf := &m.Data[0]
	m.Retain()
	if m.Release() {
		t.Fatal("the first of two holders freed the record")
	}
	if m.Kind != UpdateProp || m.Block != 9 || len(m.Data) != 4 {
		t.Fatalf("a record still held was changed: %+v", m)
	}
	if !m.Release() {
		t.Fatal("the last holder did not free the record")
	}
	if m.Kind != KindInvalid || m.Src != 0 || m.Block != 0 || len(m.Data) != 0 {
		t.Fatalf("freed record not zeroed: %+v", m)
	}
	if cap(m.Data) != 4 || &m.Data[:1][0] != buf {
		t.Fatal("freed record lost its payload buffer")
	}
	if !m.Release() {
		t.Fatal("a freed record, taken again, is not held once")
	}
}
