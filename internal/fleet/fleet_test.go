package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"sesa/internal/config"
	"sesa/internal/runner"
	"sesa/internal/trace"
)

// testJobs builds n small deterministic jobs (distinct seeds so each is a
// distinct content address).
func testJobs(t *testing.T, n int, hists bool) []runner.Job {
	t.Helper()
	p, ok := trace.Lookup("radix")
	if !ok {
		t.Fatal("radix profile missing")
	}
	model, err := config.ParseModel("x86")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]runner.Job, n)
	for i := range jobs {
		jobs[i] = runner.Job{
			Profile:     p,
			Model:       model,
			InstPerCore: 500,
			Seed:        uint64(100 + i),
			Hists:       hists,
		}
	}
	return jobs
}

func newTestCoordinator(t *testing.T, opts config.Fleet) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// runAsync drives RunJobs in a goroutine, returning the channel its results
// land on.
func runAsync(ctx context.Context, c *Coordinator, id string, jobs []runner.Job) <-chan []runner.Result {
	out := make(chan []runner.Result, 1)
	go func() {
		res, err := c.RunJobs(ctx, id, jobs, nil, nil, nil)
		if err != nil {
			res = nil
		}
		out <- res
	}()
	return out
}

// localResults runs the same jobs on a local pool — the byte-identity
// reference for every fleet path.
func localResults(t *testing.T, jobs []runner.Job) []runner.Result {
	t.Helper()
	res, _ := runner.Pool{Workers: 2, Cache: trace.Shared()}.Run(jobs)
	return res
}

// sameResults compares the deterministic slice of two result sets: stats,
// characterization, histograms and error classification — everything the
// report layer serializes.
func sameResults(t *testing.T, got, want []runner.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("result %d: err %v, want %v", i, got[i].Err, want[i].Err)
		}
		if !reflect.DeepEqual(got[i].Char, want[i].Char) {
			t.Errorf("result %d: characterization differs:\n got %+v\nwant %+v", i, got[i].Char, want[i].Char)
		}
		if !reflect.DeepEqual(got[i].Stats, want[i].Stats) {
			t.Errorf("result %d: stats differ", i)
		}
		gh, _ := json.Marshal(got[i].Hists)
		wh, _ := json.Marshal(want[i].Hists)
		if string(gh) != string(wh) {
			t.Errorf("result %d: histograms differ:\n got %s\nwant %s", i, gh, wh)
		}
	}
}

// completeBatch simulates a worker executing a lease and reporting it.
func completeBatch(t *testing.T, c *Coordinator, workerID string, lease LeaseResponse) CompleteResponse {
	t.Helper()
	jobs := make([]runner.Job, len(lease.Jobs))
	for k, wj := range lease.Jobs {
		j, err := wj.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		jobs[k] = j
	}
	results, _ := runner.Pool{Workers: 1, Cache: trace.Shared()}.Run(jobs)
	req := CompleteRequest{WorkerID: workerID, BatchID: lease.BatchID}
	for k := range results {
		wr := EncodeResult(results[k])
		wr.Index = lease.Start + k
		req.Results = append(req.Results, wr)
	}
	resp, err := c.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// leaseUntil polls Lease until a batch is granted or the deadline passes.
func leaseUntil(t *testing.T, c *Coordinator, workerID string, timeout time.Duration) LeaseResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		lease, ok, err := c.Lease(LeaseRequest{WorkerID: workerID})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return lease
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s got no lease within %s", workerID, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func statusRow(rows []WorkerStatus, id string) (WorkerStatus, bool) {
	for _, r := range rows {
		if r.ID == id {
			return r, true
		}
	}
	return WorkerStatus{}, false
}

// TestLeaseExpiryReassignment is the heart of the failure model: a worker
// that leases a batch and goes silent forfeits it after the TTL, and the
// next worker to ask redoes the work — with the sweep's final results
// indistinguishable from the no-failure run.
func TestLeaseExpiryReassignment(t *testing.T) {
	c := newTestCoordinator(t, config.Fleet{BatchSize: 2, LeaseTTL: 30 * time.Millisecond, MaxAttempts: 5})
	jobs := testJobs(t, 2, true)
	done := runAsync(context.Background(), c, "sw-exp", jobs)

	dead := c.Register(RegisterRequest{Name: "dead"})
	lease := leaseUntil(t, c, dead.WorkerID, time.Second)
	// The dead worker never heartbeats and never completes.

	live := c.Register(RegisterRequest{Name: "live"})
	release := leaseUntil(t, c, live.WorkerID, 2*time.Second)
	if release.BatchID != lease.BatchID {
		t.Fatalf("reassigned batch %s, want the forfeited %s", release.BatchID, lease.BatchID)
	}
	if resp := completeBatch(t, c, live.WorkerID, release); resp.Accepted != 2 {
		t.Fatalf("accepted %d results, want 2", resp.Accepted)
	}

	results := <-done
	sameResults(t, results, localResults(t, jobs))

	rows := c.WorkerStatus()
	if row, ok := statusRow(rows, dead.WorkerID); !ok || row.Failed != 1 {
		t.Errorf("dead worker row = %+v (ok=%v), want Failed=1", row, ok)
	}
	if row, ok := statusRow(rows, live.WorkerID); !ok || row.Retried != 1 || row.Completed != 1 {
		t.Errorf("live worker row = %+v (ok=%v), want Retried=1 Completed=1", row, ok)
	}
}

// TestDuplicateCompletionFirstWriteWins: when a forfeited batch is finished
// by both its old and new holder, the first report lands and the second is
// acknowledged as a duplicate — never double-counted, never an error.
func TestDuplicateCompletionFirstWriteWins(t *testing.T) {
	c := newTestCoordinator(t, config.Fleet{BatchSize: 2, LeaseTTL: 30 * time.Millisecond, MaxAttempts: 5})
	jobs := testJobs(t, 2, false)
	done := runAsync(context.Background(), c, "sw-dup", jobs)

	w1 := c.Register(RegisterRequest{Name: "slow"})
	lease1 := leaseUntil(t, c, w1.WorkerID, time.Second)
	w2 := c.Register(RegisterRequest{Name: "fast"})
	lease2 := leaseUntil(t, c, w2.WorkerID, 2*time.Second)
	if lease2.BatchID != lease1.BatchID {
		t.Fatalf("second lease got %s, want reassigned %s", lease2.BatchID, lease1.BatchID)
	}

	if resp := completeBatch(t, c, w2.WorkerID, lease2); resp.Accepted != 2 || resp.Duplicate {
		t.Fatalf("first completion = %+v, want Accepted=2 Duplicate=false", resp)
	}
	// The sweep may already have finished and released its batches; both the
	// settled-batch and missing-batch paths must answer duplicate.
	if resp := completeBatch(t, c, w1.WorkerID, lease1); resp.Accepted != 0 || !resp.Duplicate {
		t.Fatalf("second completion = %+v, want Accepted=0 Duplicate=true", resp)
	}

	results := <-done
	sameResults(t, results, localResults(t, jobs))
	if row, ok := statusRow(c.WorkerStatus(), w1.WorkerID); !ok || row.Completed != 0 {
		t.Errorf("losing worker row = %+v (ok=%v), want Completed=0", row, ok)
	}
}

// TestBatchAbandonedAfterMaxAttempts: a batch that keeps getting leased to
// workers that die stops recirculating once the attempt budget is spent; its
// jobs fail with AbandonedError (which the result cache refuses).
func TestBatchAbandonedAfterMaxAttempts(t *testing.T) {
	c := newTestCoordinator(t, config.Fleet{BatchSize: 4, LeaseTTL: 20 * time.Millisecond, MaxAttempts: 2})
	jobs := testJobs(t, 2, false)
	done := runAsync(context.Background(), c, "sw-abandon", jobs)

	w := c.Register(RegisterRequest{Name: "flaky"})
	leaseUntil(t, c, w.WorkerID, time.Second) // attempt 1: silence
	leaseUntil(t, c, w.WorkerID, time.Second) // attempt 2: silence

	results := <-done
	for i, r := range results {
		if !IsAbandoned(r.Err) {
			t.Fatalf("result %d err = %v, want AbandonedError", i, r.Err)
		}
	}
	var ae *AbandonedError
	if !errors.As(results[0].Err, &ae) || ae.Attempts != 2 {
		t.Errorf("abandonment = %+v, want Attempts=2", ae)
	}
}

// TestCancelPropagation: canceling a sweep's context fails its unfinished
// jobs like a local pool would, tells leaseholders to abandon via heartbeat,
// and drops its pending batches from circulation.
func TestCancelPropagation(t *testing.T) {
	c := newTestCoordinator(t, config.Fleet{BatchSize: 1, LeaseTTL: time.Second, MaxAttempts: 5})
	jobs := testJobs(t, 3, false)
	ctx, cancel := context.WithCancel(context.Background())
	done := runAsync(ctx, c, "sw-cancel", jobs)

	w := c.Register(RegisterRequest{Name: "holder"})
	lease := leaseUntil(t, c, w.WorkerID, time.Second)

	cancel()
	results := <-done
	if results == nil {
		t.Fatal("RunJobs errored instead of returning canceled results")
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d err = %v, want context.Canceled", i, r.Err)
		}
		if !r.Canceled() {
			t.Fatalf("result %d not classified canceled", i)
		}
	}

	// The holder learns about the cancellation on its next heartbeat.
	hb, err := c.Heartbeat(HeartbeatRequest{WorkerID: w.WorkerID, Batches: []string{lease.BatchID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hb.Cancel) != 1 || hb.Cancel[0] != lease.BatchID {
		t.Fatalf("heartbeat cancel = %v, want [%s]", hb.Cancel, lease.BatchID)
	}
	// Nothing from the canceled sweep is leasable.
	if _, ok, _ := c.Lease(LeaseRequest{WorkerID: w.WorkerID}); ok {
		t.Fatal("leased a batch from a canceled sweep")
	}
}

// TestDeregisterRequeuesWithoutBurningAttempt: a graceful departure hands
// held batches back immediately and refunds the lease attempt — drain is
// not a failure.
func TestDeregisterRequeuesWithoutBurningAttempt(t *testing.T) {
	c := newTestCoordinator(t, config.Fleet{BatchSize: 2, LeaseTTL: time.Minute, MaxAttempts: 1})
	jobs := testJobs(t, 2, false)
	done := runAsync(context.Background(), c, "sw-drain", jobs)

	w1 := c.Register(RegisterRequest{Name: "leaver"})
	lease := leaseUntil(t, c, w1.WorkerID, time.Second)
	if err := c.Deregister(DeregisterRequest{WorkerID: w1.WorkerID}); err != nil {
		t.Fatal(err)
	}
	if _, ok := statusRow(c.WorkerStatus(), w1.WorkerID); ok {
		t.Error("deregistered worker still in status table")
	}

	// MaxAttempts is 1: if deregistration burned the attempt, this re-lease
	// would be an abandonment instead of a grant.
	w2 := c.Register(RegisterRequest{Name: "stayer"})
	release := leaseUntil(t, c, w2.WorkerID, time.Second)
	if release.BatchID != lease.BatchID {
		t.Fatalf("re-lease got %s, want %s", release.BatchID, lease.BatchID)
	}
	completeBatch(t, c, w2.WorkerID, release)
	sameResults(t, <-done, localResults(t, jobs))
}

// TestWorkerCrashMidBatch is the end-to-end kill test over real HTTP: a
// worker is aborted while holding leases, its batches expire and are redone
// by a second worker, and the sweep's results match the no-failure run.
func TestWorkerCrashMidBatch(t *testing.T) {
	c := newTestCoordinator(t, config.Fleet{BatchSize: 1, LeaseTTL: 60 * time.Millisecond, MaxAttempts: 10})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	jobs := testJobs(t, 6, true)
	done := runAsync(context.Background(), c, "sw-crash", jobs)

	victim := NewWorker(WorkerOptions{
		Coordinator: ts.URL, Name: "victim", Jobs: 1, Poll: 5 * time.Millisecond, Client: ts.Client(),
	})
	vdone := make(chan error, 1)
	go func() { vdone <- victim.Run(context.Background()) }()

	// Wait until the victim holds at least one lease, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var holding bool
		for _, row := range c.WorkerStatus() {
			if row.Name == "victim" && row.Leased > 0 {
				holding = true
			}
		}
		if holding {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never leased a batch")
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.Abort()
	if err := <-vdone; !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted worker returned %v, want context.Canceled", err)
	}

	rescuer := NewWorker(WorkerOptions{
		Coordinator: ts.URL, Name: "rescuer", Jobs: 2, Poll: 5 * time.Millisecond, Client: ts.Client(),
	})
	rctx, rcancel := context.WithCancel(context.Background())
	rdone := make(chan error, 1)
	go func() { rdone <- rescuer.Run(rctx) }()

	results := <-done
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d failed: %v", i, r.Err)
		}
	}
	sameResults(t, results, localResults(t, jobs))

	rcancel() // graceful drain: the rescuer deregisters
	if err := <-rdone; err != nil {
		t.Fatalf("draining worker returned %v", err)
	}
	if _, ok := statusRow(c.WorkerStatus(), "rescuer"); ok {
		t.Error("drained worker should have deregistered")
	}
}

// TestWorkerGracefulDrain: canceling Run's context mid-lease is the SIGTERM
// path — the worker finishes and reports its in-flight batch before
// deregistering, so no work is redone.
func TestWorkerGracefulDrain(t *testing.T) {
	c := newTestCoordinator(t, config.Fleet{BatchSize: 2, LeaseTTL: time.Minute, MaxAttempts: 1})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	jobs := testJobs(t, 2, false)
	done := runAsync(context.Background(), c, "sw-soft", jobs)

	w := NewWorker(WorkerOptions{
		Coordinator: ts.URL, Name: "drainer", Jobs: 1, Poll: 5 * time.Millisecond, Client: ts.Client(),
	})
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan error, 1)
	go func() { wdone <- w.Run(wctx) }()

	// Cancel as soon as the worker holds the lease: with MaxAttempts 1 and a
	// one-minute TTL, the sweep can only finish if the draining worker
	// completes its in-flight batch instead of dropping it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if row, ok := statusRow(c.WorkerStatus(), "w-000001"); ok && row.Leased > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never leased the batch")
		}
		time.Sleep(2 * time.Millisecond)
	}
	wcancel()

	results := <-done
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d failed: %v", i, r.Err)
		}
	}
	sameResults(t, results, localResults(t, jobs))
	if err := <-wdone; err != nil {
		t.Fatalf("drained worker returned %v", err)
	}
	if w.BatchesDone() != 1 {
		t.Errorf("worker completed %d batches, want 1", w.BatchesDone())
	}
	if rows := c.WorkerStatus(); len(rows) != 0 {
		t.Errorf("worker rows after drain = %+v, want none", rows)
	}
}

// TestWireJobRejectsCustomConfig locks the encodability boundary.
func TestWireJobRejectsCustomConfig(t *testing.T) {
	j := testJobs(t, 1, false)[0]
	j.Config = &config.Config{}
	if _, err := EncodeJob(j); err == nil {
		t.Error("EncodeJob accepted a custom-config job")
	}
}

// TestWireJobRoundTrip: Resolve is EncodeJob's inverse, and the stepper,
// which never changes a result, does not travel.
func TestWireJobRoundTrip(t *testing.T) {
	orig := testJobs(t, 1, true)[0]
	orig.MaxCycles = 123456
	w, err := EncodeJob(orig)
	if err != nil {
		t.Fatal(err)
	}
	naive := orig
	naive.StepMode = config.StepNaive
	if wn, err := EncodeJob(naive); err != nil || wn != w {
		t.Errorf("naive job encodes as %+v (err %v), want its skip twin's %+v", wn, err, w)
	}
	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back WireJob
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, orig)
	}
}
