// Package sweep is the simulation-as-a-service layer: it turns the
// deterministic core (identical request ⇒ byte-identical result) into a
// crash-safe, overload-tolerant backend for sweep campaigns — seed
// sweeps, parameter grids, chaos soaks — engineered for failure as the
// normal case.
//
// The pieces:
//
//   - Request: one memoizable simulation run, content-addressed by the
//     SHA-256 of its canonical encoding (Key). Identical requests from
//     different tenants share one key and therefore one execution.
//   - Store: a content-addressed on-disk result cache with atomic
//     write-rename, per-entry checksums verified on every read, and
//     startup scavenging of torn or corrupt entries.
//   - Service: a worker pool with admission control (bounded queue,
//     per-tenant quotas, typed Overloaded/QuotaExceeded shedding),
//     per-request deadlines threaded down into the simulation via
//     context, bounded retry with exponential backoff, and a poison
//     quarantine so a request that deterministically crashes its worker
//     cannot wedge the pool.
//   - Soak: the service-level chaos harness — worker kills, store
//     corruption, a daemon restart mid-sweep — asserting that no
//     accepted request is lost, duplicated, or answered with bytes that
//     differ from a clean serial run.
//
// Telemetry rides the obs bus (queue depth, shed counters, retry
// histogram, dedupe hit-rate) and is exported with the same
// deterministic metrics JSON the simulator itself uses.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"pacc/internal/collective"
	"pacc/internal/fault"
)

// Request describes one simulation run. The zero value is invalid; fill
// the fields and Validate. All fields except Tenant are folded into the
// content-address (Key): two requests that differ only by tenant are
// the same computation and dedupe onto one execution.
type Request struct {
	// Tenant is the admission-control bucket the request is charged to.
	// It is not part of the result key.
	Tenant string `json:"tenant,omitempty"`
	// Idem is an optional client idempotency key, journaled with the
	// accepted record. Resubmitting the same Idem — after a shaky
	// connection, a daemon crash, or out of simple caution — attaches
	// to the original execution instead of being accepted twice;
	// reusing an Idem for a different request is an error. Like Tenant
	// it is not part of the result key.
	Idem string `json:"idem,omitempty"`
	// Op names the collective benchmark to run (see Ops).
	Op string `json:"op"`
	// Procs and PPN shape the job: Procs ranks, PPN per node.
	Procs int `json:"procs"`
	PPN   int `json:"ppn"`
	// Bytes is the per-rank message size.
	Bytes int64 `json:"bytes"`
	// Mode is the power scheme: "no-power", "freq-scaling", "proposed".
	Mode string `json:"mode"`
	// Iters is the number of timed iterations (default 1).
	Iters int `json:"iters,omitempty"`
	// Plan optionally selects a schedule builder ("auto" for cost-based
	// selection) for plan-backed ops.
	Plan string `json:"plan,omitempty"`
	// Fault is an optional deterministic fault-injection spec (the
	// -fault syntax of the CLIs).
	Fault string `json:"fault,omitempty"`
	// Seed, when nonzero, overrides the fault spec's seed — the knob a
	// seed sweep turns. With no fault spec it still salts the key, so
	// seed-sweep grids stay distinct (and memoizable) per seed.
	Seed uint64 `json:"seed,omitempty"`
}

// Key is the content address of a request: SHA-256 over the canonical
// encoding of every key-relevant field.
type Key [sha256.Size]byte

// String returns the key as lowercase hex (the store's file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("sweep: malformed key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// keyPayload is the canonical key-relevant projection of a Request.
// Field order is fixed by the struct, so the JSON encoding — and the
// hash — is stable across processes and releases of this schema.
type keyPayload struct {
	V     int    `json:"v"`
	Op    string `json:"op"`
	Procs int    `json:"procs"`
	PPN   int    `json:"ppn"`
	Bytes int64  `json:"bytes"`
	Mode  string `json:"mode"`
	Iters int    `json:"iters"`
	Plan  string `json:"plan"`
	Fault string `json:"fault"`
	Seed  uint64 `json:"seed"`
}

// Key computes the request's content address. Call after Validate;
// normalization (default iters) happens here so equivalent requests
// collide.
func (r Request) Key() Key {
	iters := r.Iters
	if iters == 0 {
		iters = 1
	}
	enc, err := json.Marshal(keyPayload{
		V: 1, Op: r.Op, Procs: r.Procs, PPN: r.PPN, Bytes: r.Bytes,
		Mode: r.Mode, Iters: iters, Plan: r.Plan, Fault: r.Fault, Seed: r.Seed,
	})
	if err != nil {
		// A struct of scalars cannot fail to marshal.
		panic(err)
	}
	return sha256.Sum256(enc)
}

// Validate checks the request describes a runnable simulation; the
// returned error names the offending field.
func (r Request) Validate() error {
	if _, ok := collective.Op(r.Op); !ok {
		return fmt.Errorf("sweep: unknown op %q (have: %s)", r.Op, strings.Join(collective.OpNames(), ", "))
	}
	if r.Procs <= 0 || r.PPN <= 0 {
		return fmt.Errorf("sweep: procs %d and ppn %d must be positive", r.Procs, r.PPN)
	}
	if r.Procs%r.PPN != 0 {
		return fmt.Errorf("sweep: procs %d not a multiple of ppn %d", r.Procs, r.PPN)
	}
	if r.Bytes < 0 {
		return fmt.Errorf("sweep: negative message size %d", r.Bytes)
	}
	if r.Iters < 0 {
		return fmt.Errorf("sweep: negative iters %d", r.Iters)
	}
	if _, err := collective.ParsePowerMode(r.Mode); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if r.Fault != "" {
		if _, err := fault.Parse(r.Fault); err != nil {
			return fmt.Errorf("sweep: bad fault spec: %w", err)
		}
	}
	return nil
}

// Typed admission and lifecycle errors. Callers classify with
// errors.As; the service never sheds silently.

// OverloadedError reports a request shed because the bounded queue was
// full — offered load exceeded capacity and the service chose explicit
// rejection over unbounded buffering. Retry later (the queue drains at
// worker speed).
type OverloadedError struct {
	// Depth is the configured queue bound that was hit.
	Depth int
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("sweep: overloaded: queue full at depth %d", e.Depth)
}

// QuotaExceededError reports a request shed because its tenant already
// has its full quota of requests queued or running.
type QuotaExceededError struct {
	Tenant string
	Limit  int
}

func (e *QuotaExceededError) Error() string {
	return fmt.Sprintf("sweep: tenant %q quota exceeded (%d in flight)", e.Tenant, e.Limit)
}

// QuarantinedError reports a poisoned request: it failed MaxAttempts
// times (crash, error, or deadline) and has been quarantined so it
// cannot wedge the pool. Further submissions of the same key fail fast
// with this error until the service restarts.
type QuarantinedError struct {
	Key      Key
	Attempts int
	// LastErr is the failure that tipped the request into quarantine.
	LastErr error
}

func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("sweep: request %s quarantined after %d failed attempts: %v",
		e.Key, e.Attempts, e.LastErr)
}

func (e *QuarantinedError) Unwrap() error { return e.LastErr }

// WorkerCrashError reports that the worker executing a request crashed
// (a panic unwound the run). The service restarts the worker and
// retries the request under its attempt budget.
type WorkerCrashError struct {
	// Value is the recovered panic value.
	Value any
}

func (e *WorkerCrashError) Error() string {
	return fmt.Sprintf("sweep: worker crashed: %v", e.Value)
}

// ShutdownError reports a request abandoned because the service was
// closed before it completed. The work is not lost: resubmitting after
// a restart dedupes against the persistent store and reruns only what
// never finished.
type ShutdownError struct{ Key Key }

func (e *ShutdownError) Error() string {
	return fmt.Sprintf("sweep: service shut down before request %s completed", e.Key)
}

// RecoveringError reports a submission shed because the service is
// still replaying its journal. Transient by construction: retry after
// readiness (the daemon's /readyz flips from "recovering" to "ready").
type RecoveringError struct{}

func (e *RecoveringError) Error() string {
	return "sweep: service recovering (journal replay in progress), retry shortly"
}

// KilledError reports the daemon dying abruptly (the in-process
// kill -9 of the chaos harness) under a submission or a pending
// ticket. The client cannot know whether the ack landed: resubmit the
// same idempotency key against the restarted daemon — journal recovery
// plus idempotent admission make the retry safe either way.
type KilledError struct {
	Key Key
	// Point names the crash boundary that fired (chaos campaigns).
	Point string
}

func (e *KilledError) Error() string {
	if e.Point != "" {
		return fmt.Sprintf("sweep: daemon killed at %q boundary under request %s", e.Point, e.Key)
	}
	return fmt.Sprintf("sweep: daemon killed under request %s", e.Key)
}

// IdemConflictError reports an idempotency key reused for a different
// request — a client bug the service refuses to paper over.
type IdemConflictError struct {
	Idem string
	Have Key
	Got  Key
}

func (e *IdemConflictError) Error() string {
	return fmt.Sprintf("sweep: idempotency key %q already names request %s, not %s",
		e.Idem, e.Have, e.Got)
}

// Telemetry metric names (see Service.WriteStats).
const (
	CtrAccepted       = "sweep.requests.accepted"
	CtrCompleted      = "sweep.requests.completed"
	CtrFailed         = "sweep.requests.failed"
	CtrShedOverload   = "sweep.shed.overload"
	CtrShedQuota      = "sweep.shed.quota"
	CtrShedDraining   = "sweep.shed.draining"
	CtrDedupeStore    = "sweep.dedupe.hits.store"
	CtrDedupeInflight = "sweep.dedupe.hits.inflight"
	CtrDedupeMiss     = "sweep.dedupe.misses"
	CtrRetries        = "sweep.retries"
	CtrQuarantined    = "sweep.quarantined"
	CtrWorkerCrashes  = "sweep.worker.crashes"
	CtrWorkerKills    = "sweep.worker.kills"
	CtrWorkerRestarts = "sweep.worker.restarts"
	CtrStoreEvictions = "sweep.store.corrupt_evicted"
	CtrQueueDepth     = "sweep.queue.depth"
	CtrExecutions     = "sweep.requests.executed"
	CtrShedRecovering = "sweep.shed.recovering"
	CtrDedupeIdem     = "sweep.dedupe.hits.idem"

	// Journal and recovery counters (services opened via OpenService).
	CtrJournalRecords    = "sweep.journal.records"
	CtrJournalSyncs      = "sweep.journal.syncs"
	CtrRecoveryReplayed  = "sweep.recovery.records_replayed"
	CtrRecoveryRequeued  = "sweep.recovery.requeued"
	CtrRecoveryFromStore = "sweep.recovery.completed_from_store"
	CtrRecoveryShed      = "sweep.recovery.shed_restored"
	CtrRecoveryTruncated = "sweep.recovery.truncated_segments"
	CtrRecoveryLeases    = "sweep.recovery.interrupted_leases"
	HistAttempts         = "sweep.attempts_per_request"
	HistQueueWaitSecs    = "sweep.queue_wait_seconds"
	HistExecuteSecs      = "sweep.execute_seconds"
)
