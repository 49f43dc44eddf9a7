package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"pacc/internal/collective"
	"pacc/internal/sweep"
)

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		addr    = fs.String("addr", "http://localhost:8410", "daemon base URL")
		ops     = fs.String("ops", "allreduce_topo", "comma-separated ops: "+strings.Join(collective.OpNames(), ", "))
		sizes   = fs.String("sizes", "64K", "comma-separated message sizes (K/M suffixes)")
		modes   = fs.String("modes", "no-power", "comma-separated power modes")
		seeds   = fs.String("seeds", "", "seed sweep: 'lo:hi' half-open or comma list")
		procs   = fs.Int("procs", 64, "ranks")
		ppn     = fs.Int("ppn", 8, "ranks per node")
		iters   = fs.Int("iters", 1, "timed iterations")
		plan    = fs.String("plan", "", "communication plan ('auto' for cost-based selection)")
		faultS  = fs.String("fault", "", "deterministic fault spec, e.g. 'msgloss=0.02'")
		tenant  = fs.String("tenant", "cli", "tenant the submission is charged to")
		idem    = fs.String("idem", "", "idempotency key prefix: resubmitting the same prefix after a daemon crash attaches to the original work instead of re-running it")
		retries = fs.Int("retries", 5, "times to retry a 429/503 (Retry-After honored)")
		wait    = fs.Duration("wait", 10*time.Minute, "client-side timeout for the batch")
		watch   = fs.Bool("watch", false, "stream live daemon progress (/v1/watch) while the batch runs")
		watchI  = fs.Duration("watch-interval", time.Second, "progress line interval with -watch")
	)
	fs.Parse(args)

	sz, err := sweep.ParseSizes(*sizes)
	if err != nil {
		return err
	}
	sd, err := sweep.ParseSeedRange(*seeds)
	if err != nil {
		return err
	}
	grid := sweep.Grid{
		Tenant: *tenant,
		Ops:    splitList(*ops),
		Sizes:  sz,
		Modes:  splitList(*modes),
		Seeds:  sd,
		Procs:  *procs, PPN: *ppn, Iters: *iters,
		Plan: *plan, Fault: *faultS,
	}
	// Validate locally before burdening the daemon; with -idem, pin a
	// stable per-index idempotency key so this exact invocation can be
	// replayed safely against a restarted daemon.
	reqs := grid.Expand()
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return err
		}
		if *idem != "" {
			reqs[i].Idem = fmt.Sprintf("%s-%d", *idem, i)
		}
	}

	var body []byte
	if *idem != "" {
		body, err = json.Marshal(submitRequest{Requests: reqs})
	} else {
		body, err = json.Marshal(submitRequest{Grid: &grid})
	}
	if err != nil {
		return err
	}
	// The watch rides alongside the batch POST: progress lines on stderr,
	// the result table on stdout. Canceling the context tears the stream
	// down once the batch resolves either way.
	if *watch {
		ctx, cancel := context.WithCancel(context.Background())
		watchDone := make(chan struct{})
		go func() { watchProgress(ctx, *addr, *watchI, os.Stderr); close(watchDone) }()
		defer func() { cancel(); <-watchDone }()
	}

	// 429 (overload/quota) and 503 (recovering/draining daemon) are
	// backpressure, not failure: honor Retry-After and resubmit. With
	// -idem the resubmit is exactly-once by construction; without it,
	// the store dedupe still makes retries cheap.
	client := &http.Client{Timeout: *wait}
	var out submitResponse
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(strings.TrimRight(*addr, "/")+"/v1/submit",
			"application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		code := resp.StatusCode
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if attempt >= *retries {
				return fmt.Errorf("submit: daemon still shedding (%s) after %d retries", resp.Status, attempt)
			}
			delay := 2 * time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if d, err := time.ParseDuration(s + "s"); err == nil {
					delay = d
				}
			}
			fmt.Fprintf(os.Stderr, "submit: daemon shedding (%s), retrying in %v\n", resp.Status, delay)
			time.Sleep(delay)
			continue
		}
		if code != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return fmt.Errorf("submit: daemon returned %s: %s", resp.Status, strings.TrimSpace(string(msg)))
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("submit: malformed daemon response: %w", err)
		}
		break
	}

	failed := 0
	fmt.Printf("%-10s %-14s %-10s %-12s %-12s %s\n",
		"status", "op", "bytes", "elapsed(us)", "energy(J)", "key")
	for i, item := range out.Items {
		op, bts := "?", int64(0)
		if i < len(reqs) {
			op, bts = reqs[i].Op, reqs[i].Bytes
		}
		switch item.Status {
		case "completed":
			res, err := sweep.DecodeResult(item.Result)
			if err != nil {
				failed++
				fmt.Printf("%-10s %-14s %-10d %-12s %-12s %s\n",
					"bad", op, bts, "-", "-", err)
				continue
			}
			fmt.Printf("%-10s %-14s %-10d %-12.2f %-12.4f %s\n",
				item.Status, res.Op, bts, res.ElapsedUs, res.EnergyJ, shortKey(item.Key))
		default:
			failed++
			fmt.Printf("%-10s %-14s %-10d %-12s %-12s %s\n",
				item.Status, op, bts, "-", "-", item.Error)
		}
	}
	if failed > 0 {
		return fmt.Errorf("submit: %d of %d requests did not complete", failed, len(out.Items))
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}
