package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"

	"pacc/internal/mpi"
)

// digest hashes simulated outputs in the order they are fed. Floats are
// hashed by their bits, so any change in a model output shows.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) str(s string) *digest {
	d.i64(int64(len(s)))
	d.h.Write([]byte(s))
	return d
}

func (d *digest) i64(v int64) *digest {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
	return d
}

func (d *digest) f64(v float64) *digest { return d.i64(int64(math.Float64bits(v))) }

func (d *digest) f64s(vs []float64) *digest {
	d.i64(int64(len(vs)))
	for _, v := range vs {
		d.f64(v)
	}
	return d
}

// stats hashes a world's message counters.
func (d *digest) stats(s mpi.MsgStats) *digest {
	for _, v := range []int64{s.ShmEager, s.ShmRendezvous, s.NetEager, s.NetRendezvous,
		s.ShmBytes, s.NetBytes, s.Control} {
		d.i64(v)
	}
	return d
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }

// goldenJSON holds the reference digests, captured from the simulator
// by `go run . -write-golden golden.json` in this directory.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: golden.json: %v", err))
	}
	return m
}()

// matchGolden reports whether got is the reference digest for key.
func matchGolden(key, got string) bool {
	want, ok := golden[key]
	return ok && want == got
}

// writeGolden computes every workload's reference digests and writes
// them to path.
func writeGolden(path string) error {
	m := map[string]string{}
	for _, fn := range []func(map[string]string) error{
		paperGolden, scaleGolden, obsGolden, sweepGolden,
	} {
		if err := fn(m); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d digests to %s\n", len(m), path)
	return nil
}
