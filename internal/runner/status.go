package runner

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"sesa/internal/hist"
	"sesa/internal/telemetry"
)

// Progress tracks a live sweep for the -status-addr HTTP endpoint. The pool
// updates it at job boundaries only — machines are single-threaded and their
// internal state must not be read mid-run — so a snapshot is always a
// consistent set of completed-job aggregates plus the names of running jobs.
// All methods are nil-safe no-ops on a nil receiver and safe for concurrent
// use.
type Progress struct {
	mu       sync.Mutex
	start    time.Time
	end      time.Time // set when the last job completes; freezes elapsed
	total    int
	done     int
	failed   int
	timedOut int
	canceled int
	running  map[int]string
	insts    uint64
	cycles   uint64
	failures []JobFailure
	rates    []JobThroughput
	merged   *hist.Collector
	hists    bool
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

// Snapshot is one consistent view of the sweep, as served at /status.
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
// and StatusHandler.
func NewProgress() *Progress {
	return &Progress{running: make(map[int]string), merged: hist.NewCollector()}
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
	p.start = time.Now()
	p.end = time.Time{}
	p.total = n
	p.done, p.failed, p.timedOut, p.canceled = 0, 0, 0, 0
	p.insts, p.cycles = 0, 0
	p.running = make(map[int]string)
	p.failures = nil
	p.rates = nil
	p.merged = hist.NewCollector()
	p.hists = false
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
	p.done++
	if p.done >= p.total {
		// Freeze elapsed time: a daemon keeps the tracker around long after
		// the sweep finished, and its elapsed must not keep growing.
		p.end = time.Now()
	}
	if r.Err != nil {
		f := r.Failure()
		p.failed++
		if f.TimedOut {
			p.timedOut++
		}
		if f.Canceled {
			p.canceled++
		}
		p.failures = append(p.failures, f)
	}
	if r.Stats != nil {
		p.cycles += r.Stats.Cycles
		p.insts += r.Stats.Total().RetiredInsts
	}
	p.rates = append(p.rates, JobThroughput{
		Index:           r.Index,
		Name:            r.Job.Name(),
		WallSeconds:     r.Wall.Seconds(),
		CyclesPerSecond: r.CyclesPerSecond(),
		InstsPerSecond:  r.InstsPerSecond(),
	})
	if r.Hists != nil {
		p.merged.Merge(r.Hists.Merged())
		p.hists = true
	}
}

// Snapshot returns a consistent view of the sweep.
func (p *Progress) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{
		TotalJobs: p.total,
		Done:      p.done,
		Failed:    p.failed,
		TimedOut:  p.timedOut,
		Canceled:  p.canceled,
		Insts:     p.insts,
		Cycles:    p.cycles,
		Failures:  append([]JobFailure(nil), p.failures...),
	}
	for i, name := range p.running {
		s.Running = append(s.Running, RunningJob{Index: i, Name: name})
	}
	sort.Slice(s.Running, func(a, b int) bool { return s.Running[a].Index < s.Running[b].Index })
	if !p.start.IsZero() {
		if !p.end.IsZero() {
			s.ElapsedSeconds = p.end.Sub(p.start).Seconds()
		} else {
			s.ElapsedSeconds = time.Since(p.start).Seconds()
		}
	}
	if p.done > 0 && p.done < p.total {
		s.ETASeconds = s.ElapsedSeconds / float64(p.done) * float64(p.total-p.done)
	}
	if s.ElapsedSeconds > 0 {
		s.CyclesPerSecond = float64(p.cycles) / s.ElapsedSeconds
		s.InstsPerSecond = float64(p.insts) / s.ElapsedSeconds
	}
	s.Jobs = append([]JobThroughput(nil), p.rates...)
	sort.Slice(s.Jobs, func(a, b int) bool { return s.Jobs[a].Index < s.Jobs[b].Index })
	return s
}

// Histograms returns the merged latency histograms of every completed job
// that recorded any (nil when no job carried histograms yet).
func (p *Progress) Histograms() *hist.Collector {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.hists {
		return nil
	}
	c := hist.NewCollector()
	c.Merge(p.merged)
	return c
}

// StatusHandler returns the live-introspection handler every sesa process
// serves: the -status-addr listener of the CLIs, and the sesa-serve daemon,
// which mounts it beside its API. get is called once per request and
// returns the Progress to report — for a CLI sweep that is a fixed tracker,
// for a daemon whichever sweep is currently running; a nil Progress serves
// empty snapshots. reg backs /metrics; nil serves an empty exposition.
// Endpoints:
//
//	/status         sweep progress snapshot (JSON)
//	/histograms     merged latency histograms of completed jobs (JSON)
//	/metrics        Prometheus text exposition of reg
//	/healthz        liveness probe
//	/debug/pprof/   runtime profiling
func StatusHandler(get func() *Progress, reg *telemetry.Registry) http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, get().Snapshot())
	})
	mux.HandleFunc("/histograms", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, get().Histograms().Summaries())
	})
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
