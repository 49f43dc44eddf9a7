package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pacc/internal/sweep"
)

func testServer(t *testing.T) (*httptest.Server, *sweep.Service) {
	t.Helper()
	store, _, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := sweep.NewService(store, sweep.Config{Workers: 2, QueueDepth: 64})
	ts := httptest.NewServer(newMux(svc))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts, svc
}

func postSubmit(t *testing.T, ts *httptest.Server, body submitRequest) submitResponse {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/submit", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// 429/503 are the all-shed statuses: the body is still a normal
	// per-item response, so decode it either way.
	switch resp.StatusCode {
	case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
	default:
		t.Fatalf("submit returned %s", resp.Status)
	}
	var out submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestServeSubmitGrid(t *testing.T) {
	ts, _ := testServer(t)
	out := postSubmit(t, ts, submitRequest{Grid: &sweep.Grid{
		Tenant: "test",
		Ops:    []string{"allreduce", "bcast_binomial"},
		Sizes:  []int64{1024},
		Procs:  8, PPN: 4, Iters: 1,
	}})
	if len(out.Items) != 2 {
		t.Fatalf("got %d items, want 2", len(out.Items))
	}
	for i, item := range out.Items {
		if item.Status != "completed" {
			t.Fatalf("item %d: status %q (%s)", i, item.Status, item.Error)
		}
		res, err := sweep.DecodeResult(item.Result)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if res.Key != item.Key || res.ElapsedUs <= 0 {
			t.Fatalf("item %d: implausible result %+v", i, res)
		}
	}
}

func TestServeDedupeAcrossSubmits(t *testing.T) {
	ts, svc := testServer(t)
	req := sweep.Request{Op: "allreduce", Procs: 8, PPN: 4, Bytes: 2048}
	a := postSubmit(t, ts, submitRequest{Requests: []sweep.Request{req}})
	b := postSubmit(t, ts, submitRequest{Requests: []sweep.Request{req}})
	if a.Items[0].Status != "completed" || b.Items[0].Status != "completed" {
		t.Fatalf("statuses: %q, %q", a.Items[0].Status, b.Items[0].Status)
	}
	if !bytes.Equal(a.Items[0].Result, b.Items[0].Result) {
		t.Fatal("identical requests returned different bytes across submits")
	}
	if n := svc.Bus().Counter(sweep.CtrDedupeStore); n != 1 {
		t.Fatalf("store dedupe counter = %d, want 1 (second submit served from store)", n)
	}
}

func TestServeRejectsBadBatch(t *testing.T) {
	ts, _ := testServer(t)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"requests":[{"op":"nonsense","procs":8,"ppn":4}]}`, http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/v1/submit", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	// An invalid op inside an otherwise well-formed batch fails per-item.
	out := postSubmit(t, ts, submitRequest{Requests: []sweep.Request{
		{Op: "nonsense", Procs: 8, PPN: 4},
	}})
	if out.Items[0].Status != "failed" || out.Items[0].Error == "" {
		t.Fatalf("invalid op item = %+v, want failed with message", out.Items[0])
	}
	if resp, err := http.Get(ts.URL + "/v1/submit"); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/submit = %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// The SSE watch endpoint streams live counter snapshots: after a batch
// completes, the first event already reflects it, and events keep
// arriving on the requested interval until the client hangs up.
func TestServeWatchStreams(t *testing.T) {
	ts, _ := testServer(t)
	postSubmit(t, ts, submitRequest{Requests: []sweep.Request{
		{Op: "allreduce", Procs: 8, PPN: 4, Bytes: 1024},
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/watch?interval=5ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	events := 0
	for sc.Scan() && events < 3 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev watchEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("malformed event %q: %v", line, err)
		}
		if ev.Accepted != 1 || ev.Completed != 1 {
			t.Fatalf("event = %+v, want accepted=1 completed=1", ev)
		}
		events++
	}
	if events < 3 {
		t.Fatalf("stream produced %d events before the deadline, want 3", events)
	}
	if resp, err := http.Post(ts.URL+"/v1/watch", "text/plain", nil); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /v1/watch = %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/watch?interval=bogus"); err == nil {
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad interval = %d, want 400", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// A draining daemon sheds new HTTP submissions as "shed" (retry-later,
// not terminal) while a batch accepted before the drain runs to
// completion and its result lands in the store.
func TestServeDrainShedsNewAndFinishesAccepted(t *testing.T) {
	release := make(chan struct{})
	store, _, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := sweep.NewService(store, sweep.Config{
		Workers: 1, QueueDepth: 64,
		Run: func(ctx context.Context, req sweep.Request) ([]byte, error) {
			select {
			case <-release:
				return []byte(`{"held":true}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	ts := httptest.NewServer(newMux(svc))
	defer ts.Close()

	inflight := make(chan submitResponse, 1)
	go func() {
		inflight <- postSubmit(t, ts, submitRequest{Requests: []sweep.Request{
			{Op: "allreduce", Procs: 8, PPN: 4, Bytes: 1024},
		}})
	}()
	// Wait for the job to be accepted before starting the drain.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Bus().Counter(sweep.CtrAccepted) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never accepted")
		}
		time.Sleep(100 * time.Microsecond)
	}
	drained := make(chan struct{})
	go func() { svc.Shutdown(); close(drained) }()
	for svc.Bus().Counter(sweep.CtrShedDraining) == 0 {
		out := postSubmit(t, ts, submitRequest{Requests: []sweep.Request{
			{Op: "allreduce", Procs: 8, PPN: 4, Bytes: 2048},
		}})
		if st := out.Items[0].Status; st == "shed" {
			break
		} else if st != "completed" {
			t.Fatalf("submit during drain = %+v, want shed", out.Items[0])
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started shedding HTTP submissions")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	out := <-inflight
	if out.Items[0].Status != "completed" {
		t.Fatalf("accepted batch during drain = %+v, want completed", out.Items[0])
	}
	<-drained
	key, err := sweep.ParseKey(out.Items[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := store.Get(key)
	if err != nil || payload == nil {
		t.Fatalf("drained result not in store: %v, %v", payload, err)
	}
}

// A fully-shed batch carries HTTP backpressure semantics: 429 plus
// Retry-After when the cause is overload or quota, with the usual
// per-item body so clients that do parse it lose nothing.
func TestServeOverloadReturns429(t *testing.T) {
	release := make(chan struct{})
	store, _, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := sweep.NewService(store, sweep.Config{
		Workers: 1, QueueDepth: 1,
		Run: func(ctx context.Context, req sweep.Request) ([]byte, error) {
			select {
			case <-release:
				return []byte(`{"held":true}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	ts := httptest.NewServer(newMux(svc))
	defer func() { ts.Close(); svc.Close() }()

	// Saturate: one request running (held), one queued. The helper
	// goroutines retry shed submissions until theirs is accepted.
	var wg sync.WaitGroup
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := sweep.Request{Op: "allreduce", Procs: 8, PPN: 4, Bytes: int64(1024 * (i + 1))}
			for time.Now().Before(deadline) {
				out := postSubmit(t, ts, submitRequest{Requests: []sweep.Request{req}})
				if out.Items[0].Status != "shed" {
					return
				}
				time.Sleep(100 * time.Microsecond)
			}
		}(i)
	}
	for svc.Bus().Counter(sweep.CtrAccepted) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("saturation submissions never accepted")
		}
		time.Sleep(100 * time.Microsecond)
	}

	raw, _ := json.Marshal(submitRequest{Requests: []sweep.Request{
		{Op: "allreduce", Procs: 8, PPN: 4, Bytes: 99999},
	}})
	resp, err := http.Post(ts.URL+"/v1/submit", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var out submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Items[0].Status != "shed" {
		t.Errorf("item status %q, want shed", out.Items[0].Status)
	}
	close(release)
	wg.Wait()
}

// Readiness is a state machine the mux exposes: 503 "recovering" while
// the journal replays, 200 "ready" after, 503 "draining" once shutdown
// begins — and a recovering daemon sheds submits with 503 too.
func TestServeReadyzStates(t *testing.T) {
	hold := make(chan struct{})
	svc, err := sweep.OpenService(t.TempDir(), sweep.Config{
		Workers: 1, QueueDepth: 8, HoldRecovery: hold,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(svc))
	defer func() { ts.Close(); svc.Close() }()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, strings.TrimSpace(buf.String())
	}

	// Recovering: alive, not ready, submissions shed with 503.
	if code, body := get("/livez"); code != http.StatusOK || body != "ok" {
		t.Errorf("livez while recovering = %d %q, want 200 ok", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body != "recovering" {
		t.Errorf("readyz while recovering = %d %q, want 503 recovering", code, body)
	}
	raw, _ := json.Marshal(submitRequest{Requests: []sweep.Request{
		{Op: "allreduce", Procs: 8, PPN: 4, Bytes: 1024},
	}})
	resp, err := http.Post(ts.URL+"/v1/submit", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("submit while recovering = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Replay finishes: ready.
	close(hold)
	if err := svc.WaitReady(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/readyz"); code != http.StatusOK || body != "ready" {
		t.Errorf("readyz when ready = %d %q, want 200 ready", code, body)
	}
	out := postSubmit(t, ts, submitRequest{Requests: []sweep.Request{
		{Op: "allreduce", Procs: 8, PPN: 4, Bytes: 1024},
	}})
	if out.Items[0].Status != "completed" {
		t.Fatalf("submit when ready = %+v", out.Items[0])
	}

	// Shutdown: draining (terminally, here: nothing in flight, so the
	// drain completes and the state lands on closed — both are 503).
	svc.Shutdown()
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after shutdown = %d, want 503", code)
	}
	if code, body := get("/livez"); code != http.StatusOK || body != "ok" {
		t.Errorf("livez after shutdown = %d %q, want 200 ok (alive but not ready)", code, body)
	}
}

// The drain window itself reports "draining" on /readyz while accepted
// work is still running.
func TestServeReadyzDraining(t *testing.T) {
	release := make(chan struct{})
	store, _, err := sweep.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := sweep.NewService(store, sweep.Config{
		Workers: 1, QueueDepth: 8,
		Run: func(ctx context.Context, req sweep.Request) ([]byte, error) {
			select {
			case <-release:
				return []byte(`{"held":true}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	ts := httptest.NewServer(newMux(svc))
	defer func() { ts.Close() }()

	if _, err := svc.Submit(sweep.Request{Op: "allreduce", Procs: 8, PPN: 4, Bytes: 1024}); err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() { svc.Shutdown(); close(drained) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		body := strings.TrimSpace(buf.String())
		if resp.StatusCode == http.StatusServiceUnavailable && body == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported draining (last: %d %q)", resp.StatusCode, body)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	<-drained
}

func TestServeStatsAndHealth(t *testing.T) {
	ts, _ := testServer(t)
	postSubmit(t, ts, submitRequest{Requests: []sweep.Request{
		{Op: "allreduce", Procs: 8, PPN: 4, Bytes: 1024},
	}})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("stats is not JSON: %v", err)
	}
	raw, _ := json.Marshal(stats)
	if !bytes.Contains(raw, []byte(sweep.CtrCompleted)) {
		t.Fatalf("stats missing %s: %s", sweep.CtrCompleted, raw)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hz, err)
	}
	hz.Body.Close()
}

// TestServeSubmitBodyTooLarge: a body over maxSubmitBody is refused with
// 413 before it is decoded.
func TestServeSubmitBodyTooLarge(t *testing.T) {
	ts, _ := testServer(t)
	body := `{"requests":[]}` + strings.Repeat(" ", maxSubmitBody)
	resp, err := http.Post(ts.URL+"/v1/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestServeSubmitBatchTooLarge: a small body whose grid would expand
// past maxSubmitRequests — alone or together with explicit requests —
// is refused with 400 before expansion.
func TestServeSubmitBatchTooLarge(t *testing.T) {
	ts, svc := testServer(t)
	list := func(n int, f func(i int) string) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = f(i)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	// Four 1000-entry lists: about 30 KB that would expand to 10^12
	// requests.
	thousand := func(f func(i int) string) string { return list(1000, f) }
	huge := `{"grid":{"ops":` + thousand(func(i int) string { return `"allreduce"` }) +
		`,"sizes":` + thousand(func(i int) string { return "1024" }) +
		`,"modes":` + thousand(func(i int) string { return `"proposed"` }) +
		`,"seeds":` + thousand(func(i int) string { return "7" }) +
		`,"procs":8,"ppn":4}}`
	// A grid exactly at the cap plus one explicit request.
	atCap := `{"requests":[{"op":"allreduce","procs":8,"ppn":4,"bytes":1024}],"grid":{"ops":["allreduce"],"sizes":` +
		list(maxSubmitRequests, func(i int) string { return "1024" }) + `,"procs":8,"ppn":4}}`
	for name, body := range map[string]string{"grid": huge, "grid+requests": atCap} {
		resp, err := http.Post(ts.URL+"/v1/submit", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if n := svc.Bus().Counter(sweep.CtrAccepted); n != 0 {
		t.Fatalf("refused batches admitted %d requests", n)
	}
}

// FuzzSubmitDecode: whatever arrives at /v1/submit, the handler never
// panics, and a body that is not a well-formed submit request gets a
// 4xx. The service is closed, so well-formed batches are shed instead
// of run.
func FuzzSubmitDecode(f *testing.F) {
	f.Add([]byte(`{"requests":[{"op":"allreduce","procs":8,"ppn":4,"bytes":1024}],` +
		`"grid":{"ops":["allreduce","bcast_binomial"],"sizes":[1024,65536],"modes":["proposed"],"seeds":[1,2],"procs":8,"ppn":4}}`))
	f.Add([]byte(`{"grid":{"ops":["allreduce"],"sizes":[1024],"procs":8,"ppn":4}}`))
	f.Add([]byte(`{`))
	store, _, err := sweep.OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	svc := sweep.NewService(store, sweep.Config{Workers: 1, QueueDepth: 4})
	svc.Close()
	mux := newMux(svc)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body)))
		var parsed submitRequest
		if json.Unmarshal(body, &parsed) != nil && (rec.Code < 400 || rec.Code >= 500) {
			t.Fatalf("malformed body %q answered %d, want 4xx", body, rec.Code)
		}
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("body %q answered %d", body, rec.Code)
		}
	})
}
