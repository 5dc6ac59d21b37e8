package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"
)

// specSeeds are FuzzSpec's seeds: the request bodies README's ssmpd
// examples send and the bodies this package's tests post, good and bad.
var specSeeds = []string{
	// README
	`{"procs":32,"protocol":"wbi","workload":"queue","grain":128,"seed":7}`,
	`{"name":"iriw","seeds":128}`,
	`{"procs":64,"workload":"queue","sim_workers":4}`,
	`{"procs":16,"lock":"cbl"}`,
	// sim and figure
	smallSim,
	faultySim,
	`{"procs":64,"workload":"queue","grain":512,"tasks":4096,"timeout_ms":50}`,
	`{"procs":4,"workload":"queue","grain":32,"tasks":8,"seed":7,"sim_workers":2}`,
	`{"procs":4,"workload":"queue","tasks":8,"topology":"bus","sim_workers":2}`,
	`{"procs":2,"faults":{"seed":1,"drop":1.5}}`,
	`{"procs":2,"faults":{"seed":1,"dup":-0.1}}`,
	`{"procs":2,"faults":{"seed":0,"drop":0.1}}`,
	`{"procs":2,"faults":{"seed":1,"drop":0.1,"delay_max":-4}}`,
	`{"procs":`,
	`{"prcs":8}`,
	`{"procs":3}`,
	`{"figure":9}`,
	`{"figure":4,"procs":[2,4],"episodes":2,"tasks":12,"spawn_prob":0,"seed":7}`,
	// kv
	smallKV,
	`{"procs":4,"lock":"mcs","keys":64,"shards":4,"ops":32,"faults":{"seed":3,"drop":0.03,"dup":0.03,"delay":0.1}}`,
	`{"lock":"nope"}`,
	`{"get_frac":0.9,"put_frac":0.3}`,
	`{"sim_workers":-1}`,
	`{"ops":100000}`,
	// litmus
	`{"name":"sb","seeds":16}`,
	`{"batch":"corpus","seeds":4}`,
	`{"seeds":8,"test":{"name":"inline","procs":[[{"op":"write-global","loc":"x","val":1},{"op":"flush"},{"op":"read-global","loc":"x"}]],"must_forbid":["P0:r0=0"]}}`,
	`{}`,
	`{"name":"sb","test":{"name":"x","procs":[[{"op":"flush"}]]}}`,
	`{"name":"sb","seeds":100000}`,
	`{"test":{"name":"x","procs":[[{"op":"cas","loc":"x"}]]}}`,
	`{"name":"sb","bogus":1}`,
	`{"batch":"everything"}`,
}

// FuzzSpec decodes arbitrary request bodies into each of the four job
// specs the daemon serves, rejecting unknown fields as decodeBody does.
// Decoding and Normalize must never panic. A spec Normalize accepts must be
// a fixpoint: a second Normalize changes neither its canonical encoding nor
// its Key. And that encoding, decoded and normalized again, must give the
// same Key, so a cached result is found again under the body it returns.
func FuzzSpec(f *testing.F) {
	for _, s := range specSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSpec[SimSpec](t, body)
		checkSpec[FigureSpec](t, body)
		checkSpec[KVSpec](t, body)
		checkSpec[LitmusSpec](t, body)
	})
}

// jobSpec is what the daemon needs of a spec: its defaults, its checks and
// its content address.
type jobSpec[S any] interface {
	*S
	Normalize() error
	Key() string
}

// checkSpec checks FuzzSpec's properties for body decoded as an S.
func checkSpec[S any, P jobSpec[S]](t *testing.T, body []byte) {
	var s S
	if decodeSpec(body, &s) != nil || P(&s).Normalize() != nil {
		return
	}
	enc, key := encodeSpec(t, &s), P(&s).Key()
	if err := P(&s).Normalize(); err != nil {
		t.Fatalf("%T %s: a normalized spec fails Normalize: %v", s, enc, err)
	}
	if again := encodeSpec(t, &s); !bytes.Equal(again, enc) {
		t.Fatalf("%T: a second Normalize changed %s to %s", s, enc, again)
	}
	if k := P(&s).Key(); k != key {
		t.Fatalf("%T %s: a second Normalize changed the key", s, enc)
	}
	var back S
	if err := decodeSpec(enc, &back); err != nil {
		t.Fatalf("%T: decoding its own encoding %s: %v", s, enc, err)
	}
	if err := P(&back).Normalize(); err != nil {
		t.Fatalf("%T %s: Normalize of its own encoding: %v", s, enc, err)
	}
	if k := P(&back).Key(); k != key {
		t.Fatalf("%T: %s decoded again has another key", s, enc)
	}
}

// decodeSpec decodes body into v as decodeBody does: unknown fields are an
// error, and an empty body leaves every default.
func decodeSpec(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	return nil
}

func encodeSpec(t *testing.T, v any) []byte {
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("encoding %T: %v", v, err)
	}
	return enc
}
