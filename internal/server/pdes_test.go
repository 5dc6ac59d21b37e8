package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

func TestSimWorkersSpecValidation(t *testing.T) {
	bad := []SimSpec{
		{SimWorkers: -1},
		{SimWorkers: maxSpecProcs + 1},
	}
	for i, s := range bad {
		s := s
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %d (%+v) should not validate", i, s)
		}
	}
	// Lane mode no longer requires the ideal network: the window-barrier
	// arbiter makes the contended models lane-safe.
	for _, ok := range []SimSpec{
		{SimWorkers: 8, IdealNetwork: true},
		{SimWorkers: 8},
	} {
		if err := ok.Normalize(); err != nil {
			t.Fatalf("lane spec %+v should validate: %v", ok, err)
		}
	}
}

// TestSimWorkersEndToEnd: the daemon accepts lane-mode specs — contended
// networks included — and returns bit-identical results at every worker
// count (under distinct cache keys: the worker count is part of the spec).
func TestSimWorkersEndToEnd(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	_ = s

	spec := func(workers int) string {
		return fmt.Sprintf(`{"procs":4,"workload":"queue","grain":32,"tasks":8,"seed":7,
			"sim_workers":%d}`, workers)
	}
	type reply struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	var ref reply
	keys := map[string]bool{}
	for _, workers := range []int{1, 2, 4} {
		resp, body := postJSON(t, ts.URL+"/v1/sim", spec(workers))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers %d: status %d: %s", workers, resp.StatusCode, body)
		}
		var jr reply
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		keys[jr.Key] = true
		if ref.Key == "" {
			ref = jr
			continue
		}
		if string(jr.Result) != string(ref.Result) {
			t.Fatalf("workers %d result diverges:\n got %s\nwant %s", workers, jr.Result, ref.Result)
		}
	}
	if len(keys) != 3 {
		t.Fatalf("expected 3 distinct cache keys, got %d", len(keys))
	}

	// The bus is a single shared medium — zero lane parallelism — so the
	// machine runs one lane whatever sim_workers asks for, and its result
	// is the serial one.
	bus := func(workers int) string {
		resp, body := postJSON(t, ts.URL+"/v1/sim", fmt.Sprintf(
			`{"procs":4,"workload":"queue","tasks":8,"topology":"bus","sim_workers":%d}`, workers))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bus spec at sim_workers %d: status %d: %s", workers, resp.StatusCode, body)
		}
		var jr reply
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		return string(jr.Result)
	}
	if lanes, serial := bus(2), bus(0); lanes != serial {
		t.Fatalf("bus lane run differs from serial:\n got %s\nwant %s", lanes, serial)
	}
}
