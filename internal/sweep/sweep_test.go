package sweep

import (
	"math"
	"reflect"
	"testing"

	"pacc/internal/collective"
)

func TestKeyTenantIndependent(t *testing.T) {
	a := Request{Tenant: "alpha", Op: "allreduce", Procs: 8, PPN: 4, Bytes: 1024}
	b := a
	b.Tenant = "beta"
	if a.Key() != b.Key() {
		t.Fatal("tenant leaked into the content address; cross-tenant dedupe is dead")
	}
}

func TestKeyNormalizesDefaultIters(t *testing.T) {
	a := Request{Op: "allreduce", Procs: 8, PPN: 4, Bytes: 1024, Iters: 0}
	b := a
	b.Iters = 1
	if a.Key() != b.Key() {
		t.Fatal("iters=0 and iters=1 are the same computation but hash differently")
	}
}

func TestKeySensitiveToEveryField(t *testing.T) {
	base := Request{Op: "allreduce", Procs: 8, PPN: 4, Bytes: 1024, Mode: "no-power",
		Iters: 2, Plan: "auto", Fault: "msgloss=0.01", Seed: 7}
	mutations := []func(*Request){
		func(r *Request) { r.Op = "allgather" },
		func(r *Request) { r.Procs = 16 },
		func(r *Request) { r.PPN = 8 },
		func(r *Request) { r.Bytes = 2048 },
		func(r *Request) { r.Mode = "proposed" },
		func(r *Request) { r.Iters = 3 },
		func(r *Request) { r.Plan = "" },
		func(r *Request) { r.Fault = "msgloss=0.02" },
		func(r *Request) { r.Seed = 8 },
	}
	for i, mutate := range mutations {
		m := base
		mutate(&m)
		if m.Key() == base.Key() {
			t.Errorf("mutation %d did not change the key", i)
		}
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	for _, bad := range []Request{
		{Op: "teleport", Procs: 8, PPN: 4},
		{Op: "allreduce", Procs: 0, PPN: 4},
		{Op: "allreduce", Procs: 9, PPN: 4},
		{Op: "allreduce", Procs: 8, PPN: 4, Bytes: -1},
		{Op: "allreduce", Procs: 8, PPN: 4, Iters: -2},
		{Op: "allreduce", Procs: 8, PPN: 4, Mode: "overclock"},
		{Op: "allreduce", Procs: 8, PPN: 4, Fault: "gibberish::"},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", bad)
		}
	}
	good := Request{Op: "allreduce", Procs: 8, PPN: 4, Bytes: 1024, Mode: "no-power"}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
}

func TestGridExpandDeterministic(t *testing.T) {
	g := Grid{
		Ops: []string{"allreduce", "bcast"}, Sizes: []int64{1024, 2048},
		Modes: []string{"no-power", "proposed"}, Seeds: []uint64{1, 2, 3},
		Procs: 8, PPN: 4,
	}
	a, b := g.Expand(), g.Expand()
	if len(a) != 2*2*2*3 {
		t.Fatalf("Expand produced %d requests, want 24", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Expand is not deterministic")
	}
	if a[0].Op != "allreduce" || a[len(a)-1].Op != "bcast" {
		t.Fatal("Expand order is not op-major")
	}
	// Defaults: empty modes/seeds expand to one cell, not zero.
	n := len(Grid{Ops: []string{"allreduce"}, Sizes: []int64{1024}, Procs: 8, PPN: 4}.Expand())
	if n != 1 {
		t.Fatalf("default mode/seed expansion = %d cells, want 1", n)
	}
}

// TestGridCells: Cells counts what Expand would produce (defaults
// included) and refuses, without overflowing, grids past the limit.
func TestGridCells(t *testing.T) {
	for _, g := range []Grid{
		{Ops: []string{"allreduce", "bcast"}, Sizes: []int64{1024, 2048},
			Modes: []string{"no-power", "proposed"}, Seeds: []uint64{1, 2, 3}},
		{Ops: []string{"allreduce"}, Sizes: []int64{1024}},
		{Sizes: []int64{1024}},
	} {
		n, ok := g.Cells(1 << 16)
		if want := len(g.Expand()); !ok || n != want {
			t.Errorf("Cells(%+v) = %d, %v; want %d", g, n, ok, want)
		}
		if want := len(g.Expand()); want > 0 {
			if _, ok := g.Cells(want - 1); ok {
				t.Errorf("Cells(%+v) accepted a limit below its %d cells", g, want)
			}
		}
	}
	// 2^16 entries per list: the product 2^64 wraps a 64-bit int.
	const k = 1 << 16
	huge := Grid{Ops: make([]string, k), Sizes: make([]int64, k), Modes: make([]string, k), Seeds: make([]uint64, k)}
	if n, ok := huge.Cells(math.MaxInt); ok {
		t.Fatalf("Cells accepted a 2^64-cell grid as %d", n)
	}
}

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes("512, 1K,2M")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{512, 1 << 10, 2 << 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseSizes = %v, want %v", got, want)
	}
	// 17592186044417M is 2^64 + 1M: it used to wrap around to [1048576].
	for _, bad := range []string{"", "1G?", "-4K", "abc", "1K,17592186044417M"} {
		if _, err := ParseSizes(bad); err == nil {
			t.Errorf("ParseSizes(%q) accepted", bad)
		}
	}
}

// TestValidateAcceptsCatalogue: a request may name exactly the
// collective catalogue's ops and its power-mode names.
func TestValidateAcceptsCatalogue(t *testing.T) {
	base := Request{Procs: 8, PPN: 4, Bytes: 1024}
	for _, name := range collective.OpNames() {
		for _, mode := range []string{"", "no-power", "dvfs", "proposed"} {
			r := base
			r.Op, r.Mode = name, mode
			if err := r.Validate(); err != nil {
				t.Errorf("Validate(%s, %q): %v", name, mode, err)
			}
		}
	}
	for _, bad := range []string{"", "barrier", "bw", "latency", "bogus", "alltoall_pairwise"} {
		r := base
		r.Op = bad
		if err := r.Validate(); err == nil {
			t.Errorf("Validate accepted op %q", bad)
		}
	}
	r := base
	r.Op, r.Mode = "bcast", "turbo"
	if err := r.Validate(); err == nil {
		t.Error("Validate accepted mode turbo")
	}
}

func TestParseSeedRange(t *testing.T) {
	got, err := ParseSeedRange("2:5")
	if err != nil || !reflect.DeepEqual(got, []uint64{2, 3, 4}) {
		t.Fatalf("ParseSeedRange(2:5) = %v, %v", got, err)
	}
	got, err = ParseSeedRange("7, 9")
	if err != nil || !reflect.DeepEqual(got, []uint64{7, 9}) {
		t.Fatalf("ParseSeedRange(7,9) = %v, %v", got, err)
	}
	for _, bad := range []string{"5:2", "a:b", "1,x", "0:9999999999"} {
		if _, err := ParseSeedRange(bad); err == nil {
			t.Errorf("ParseSeedRange(%q) accepted", bad)
		}
	}
}
