package runner

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"sesa/internal/report"
	"sesa/internal/telemetry"
)

// Progress tracks a live sweep for the metrics endpoint and sesa-serve's
// per-sweep status document. The pool updates it at job boundaries only —
// machines are single-threaded and their internal state must not be read
// mid-run — so a snapshot is always a consistent set of completed-job
// aggregates plus the names of running jobs. All methods are nil-safe no-ops
// on a nil receiver and safe for concurrent use.
type Progress struct {
	mu       sync.Mutex
	start    time.Time
	end      time.Time // set when the last job completes; freezes elapsed
	total    int
	done     report.SweepSummary // the completed jobs, counted by tally
	running  map[int]string
	failures []JobFailure
	rates    []JobThroughput
}

// JobThroughput is one completed job's host-side simulation throughput.
type JobThroughput struct {
	Index           int     `json:"index"`
	Name            string  `json:"name"`
	WallSeconds     float64 `json:"wall_seconds"`
	CyclesPerSecond float64 `json:"cycles_per_second"`
	InstsPerSecond  float64 `json:"insts_per_second"`
}

// JobFailure describes one failed job in status and results documents.
type JobFailure struct {
	Index    int    `json:"index"`
	Name     string `json:"name"`
	Error    string `json:"error"`
	TimedOut bool   `json:"timed_out"`
	Canceled bool   `json:"canceled"`
}

// RunningJob names one in-flight job.
type RunningJob struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
}

// Snapshot is one consistent view of the sweep: the progress field of
// sesa-serve's per-sweep status document, and the source of the sweep
// metric families.
type Snapshot struct {
	TotalJobs int          `json:"total_jobs"`
	Done      int          `json:"done"`
	Failed    int          `json:"failed"`
	TimedOut  int          `json:"timed_out"`
	Canceled  int          `json:"canceled"`
	Running   []RunningJob `json:"running"`
	// Insts and Cycles total the retired instructions and simulated cycles
	// of completed jobs.
	Insts          uint64  `json:"instructions_retired"`
	Cycles         uint64  `json:"sim_cycles"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ETASeconds extrapolates the remaining time from the mean completed-job
	// duration; 0 until the first job completes or once the sweep is done.
	ETASeconds float64      `json:"eta_seconds"`
	Failures   []JobFailure `json:"failures"`
	// CyclesPerSecond and InstsPerSecond are the sweep-aggregate host-side
	// throughput so far: completed jobs' simulated work over the elapsed
	// wall-clock time.
	CyclesPerSecond float64 `json:"cycles_per_second"`
	InstsPerSecond  float64 `json:"insts_per_second"`
	// Jobs lists each completed job's individual throughput, in job order.
	Jobs []JobThroughput `json:"job_throughput,omitempty"`
}

// NewProgress returns an empty progress tracker to hand to Pool.Progress
// and RegisterSweepMetrics.
func NewProgress() *Progress {
	return &Progress{running: make(map[int]string)}
}

// begin resets the tracker for a sweep of n jobs. Sequential sweeps may reuse
// one tracker; counters accumulate only within a sweep. The pool calls it at
// the top of RunContext.
func (p *Progress) begin(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.start, p.end = time.Now(), time.Time{}
	p.total, p.done = n, report.SweepSummary{}
	p.running = make(map[int]string)
	p.failures, p.rates = nil, nil
}

// jobStarted records that job i is now running.
func (p *Progress) jobStarted(i int, name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.running[i] = name
}

// jobDone folds a completed job into the aggregates.
func (p *Progress) jobDone(r *Result) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.running, r.Index)
	tally(&p.done, r)
	if p.done.Jobs >= p.total {
		// Freeze elapsed time: a daemon keeps the tracker around long after
		// the sweep finished, and its elapsed must not keep growing.
		p.end = time.Now()
	}
	if r.Err != nil {
		p.failures = append(p.failures, r.Failure())
	}
	p.rates = append(p.rates, JobThroughput{
		Index:           r.Index,
		Name:            r.Job.Name(),
		WallSeconds:     r.Wall.Seconds(),
		CyclesPerSecond: r.CyclesPerSecond(),
		InstsPerSecond:  r.InstsPerSecond(),
	})
}

// Snapshot returns a consistent view of the sweep.
func (p *Progress) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.countersLocked()
	s.Failures = append([]JobFailure(nil), p.failures...)
	for i, name := range p.running {
		s.Running = append(s.Running, RunningJob{Index: i, Name: name})
	}
	sort.Slice(s.Running, func(a, b int) bool { return s.Running[a].Index < s.Running[b].Index })
	s.Jobs = append([]JobThroughput(nil), p.rates...)
	sort.Slice(s.Jobs, func(a, b int) bool { return s.Jobs[a].Index < s.Jobs[b].Index })
	return s
}

// Counters is Snapshot without its rows (Running, Failures and Jobs): what
// the sweep metric families and an ETA read, at a cost that does not grow
// with the number of finished jobs.
func (p *Progress) Counters() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.countersLocked()
}

// countersLocked computes the snapshot's counters; p.mu must be held.
func (p *Progress) countersLocked() Snapshot {
	s := Snapshot{
		TotalJobs: p.total,
		Done:      p.done.Jobs,
		Failed:    p.done.Failed,
		TimedOut:  p.done.TimedOut,
		Canceled:  p.done.Canceled,
		Insts:     p.done.SimInsts,
		Cycles:    p.done.SimCycles,
	}
	if !p.start.IsZero() {
		if !p.end.IsZero() {
			s.ElapsedSeconds = p.end.Sub(p.start).Seconds()
		} else {
			s.ElapsedSeconds = time.Since(p.start).Seconds()
		}
	}
	if s.Done > 0 && s.Done < p.total {
		s.ETASeconds = s.ElapsedSeconds / float64(s.Done) * float64(p.total-s.Done)
	}
	if s.ElapsedSeconds > 0 {
		s.CyclesPerSecond = float64(s.Cycles) / s.ElapsedSeconds
		s.InstsPerSecond = float64(s.Insts) / s.ElapsedSeconds
	}
	return s
}

// LabeledProgress is one sweep the sweep metric families report: its
// tracker and the labels its series carry.
type LabeledProgress struct {
	Labels   [][2]string
	Progress *Progress
}

// sweepFamilies are the sweep metric families, each read off a snapshot's
// counters.
var sweepFamilies = []struct {
	name, help string
	value      func(Snapshot) float64
}{
	{"sesa_sweep_jobs", "Jobs the sweep runs on its worker pool (result-cache hits excluded).",
		func(s Snapshot) float64 { return float64(s.TotalJobs) }},
	{"sesa_sweep_jobs_done", "Jobs the sweep has completed.",
		func(s Snapshot) float64 { return float64(s.Done) }},
	{"sesa_sweep_jobs_failed", "Completed jobs that failed.",
		func(s Snapshot) float64 { return float64(s.Failed) }},
	{"sesa_sweep_jobs_per_second", "Sweep throughput: completed jobs per elapsed wall-clock second.",
		func(s Snapshot) float64 {
			if s.ElapsedSeconds <= 0 {
				return 0
			}
			return float64(s.Done) / s.ElapsedSeconds
		}},
	{"sesa_sweep_cycles_per_second", "Sweep throughput: simulated cycles per elapsed wall-clock second.",
		func(s Snapshot) float64 { return s.CyclesPerSecond }},
}

// RegisterSweepMetrics installs the sesa_sweep_* gauge families on reg.
// sweeps is called at every scrape and returns the sweeps to report: a
// CLI's one tracker, unlabeled, or the daemon's window of sweeps, each
// labeled with its id.
func RegisterSweepMetrics(reg *telemetry.Registry, sweeps func() []LabeledProgress) {
	for _, f := range sweepFamilies {
		reg.GaugeFunc(f.name, f.help, func() []telemetry.Sample {
			var out []telemetry.Sample
			for _, sw := range sweeps() {
				out = append(out, telemetry.Sample{Labels: sw.Labels, Value: f.value(sw.Progress.Counters())})
			}
			return out
		})
	}
}

// StatusHandler returns the introspection handler every sesa process
// serves: the -status-addr listener of the CLIs, and the sesa-serve daemon,
// which mounts it beside its API. Endpoints:
//
//	/metrics        Prometheus text exposition of reg
//	/healthz        liveness probe
//	/debug/pprof/   runtime profiling
func StatusHandler(reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeStatus serves h on a new listener bound to addr and returns the bound
// address (useful with ":0"). The server lives until the process exits; the
// processes that use it keep it for their whole life, so there is no
// shutdown plumbing.
func ServeStatus(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("runner: status server: %w", err)
	}
	go func() { _ = http.Serve(ln, h) }()
	return ln.Addr().String(), nil
}
