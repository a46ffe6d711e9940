package obs

import (
	"bufio"
	"fmt"
	"io"

	"sesa/internal/isa"
)

// WriteChrome renders the runs as a Chrome trace-event JSON document,
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
//
// Layout: each run is one process (pid = run index, named after the run);
// each core contributes two threads — an instruction track (tid 2*core)
// carrying one complete event per instruction lifetime plus instant events
// for SLF hits, squashes, SB insertions and snoops, and a gate track
// (tid 2*core+1) carrying one begin/end pair per retire-gate closed window.
// One simulated cycle maps to one microsecond of trace time.
//
// The output is deterministic: events are emitted in recording order with
// hand-built JSON, so a fixed seed produces byte-identical files no matter
// how many sweep workers ran the simulation.
func WriteChrome(w io.Writer, runs []Run) error {
	cw := NewChromeWriter(w)
	for pid, run := range runs {
		cw.Meta(pid, -1, "process_name", run.Name)
		for c := 0; c < run.Tracer.Cores(); c++ {
			cw.Meta(pid, 2*c, "thread_name", fmt.Sprintf("core %d", c))
			cw.Meta(pid, 2*c+1, "thread_name", fmt.Sprintf("core %d gate", c))
		}
		for c := 0; c < run.Tracer.Cores(); c++ {
			cw.core(pid, c, run.Tracer.Core(c))
		}
	}
	return cw.Close()
}

// ChromeWriter writes one Chrome trace-event JSON document. Every event is
// hand-built JSON (no maps anywhere), so field order is fixed and a document
// is reproducible byte for byte. The pipeline trace above and the sweep
// service's span timeline (telemetry.Timeline.WriteChrome) both render
// through it.
type ChromeWriter struct {
	w       *bufio.Writer
	started bool
}

// NewChromeWriter writes the document header to w. Finish with Close.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	cw := &ChromeWriter{w: bufio.NewWriter(w)}
	fmt.Fprintf(cw.w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	return cw
}

// Event writes one event, formatted as by fmt.Fprintf, preceded by the
// separating comma when it is not the first.
func (cw *ChromeWriter) Event(format string, a ...any) {
	if cw.started {
		fmt.Fprintf(cw.w, ",\n")
	}
	cw.started = true
	fmt.Fprintf(cw.w, format, a...)
}

// Meta writes a metadata event naming a process (tid < 0) or a thread;
// kind is "process_name" or "thread_name".
func (cw *ChromeWriter) Meta(pid, tid int, kind, name string) {
	if tid < 0 {
		cw.Event("{\"ph\":\"M\",\"pid\":%d,\"name\":%q,\"args\":{\"name\":%q}}", pid, kind, name)
		return
	}
	cw.Event("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":%q,\"args\":{\"name\":%q}}", pid, tid, kind, name)
}

// Close writes the document footer and flushes.
func (cw *ChromeWriter) Close() error {
	fmt.Fprintf(cw.w, "\n]}\n")
	return cw.w.Flush()
}

// span tracks one in-flight instruction between its dispatch and its
// retire/flush event.
type span struct {
	seq      uint64
	op       isa.Op
	addr     uint64
	traceIdx int32
	dispatch uint64
	issue    uint64
	perform  uint64
	slf      bool
}

// instLabel renders the span's display name.
func (s *span) instLabel() string {
	if s.op.IsMem() {
		return fmt.Sprintf("%s [%#x]", s.op, s.addr)
	}
	return s.op.String()
}

// core emits one core's events onto its two tracks.
func (cw *ChromeWriter) core(pid, coreID int, t *CoreTracer) {
	events := t.Events()
	tid := 2 * coreID
	gateTid := tid + 1
	// Open spans by dynamic sequence number. Squashes keep the map small;
	// a leftover span at the end of the record is an instruction still in
	// flight when the run was cut off.
	open := make(map[uint64]*span)
	order := []uint64{} // dispatch order, for deterministic leftover emission
	var last uint64
	for i := range events {
		ev := &events[i]
		last = ev.Cycle
		switch ev.Kind {
		case KDispatch:
			s := &span{seq: ev.Seq, op: ev.Op, addr: ev.Addr, traceIdx: ev.TraceIdx, dispatch: ev.Cycle}
			open[ev.Seq] = s
			order = append(order, ev.Seq)
		case KIssue:
			if s := open[ev.Seq]; s != nil {
				s.issue = ev.Cycle
			}
		case KPerform:
			if s := open[ev.Seq]; s != nil {
				s.perform = ev.Cycle
			}
		case KRetire:
			if s := open[ev.Seq]; s != nil {
				cw.inst(pid, tid, s, "inst", ev.Cycle)
				delete(open, ev.Seq)
			}
		case KFlush:
			if s := open[ev.Seq]; s != nil {
				cw.inst(pid, tid, s, "squashed", ev.Cycle)
				delete(open, ev.Seq)
			}
		case KSLFHit:
			if s := open[ev.Seq]; s != nil {
				s.slf = true
			}
			cw.instant(pid, tid, fmt.Sprintf("SLF hit [%#x]", ev.Addr), ev.Cycle,
				fmt.Sprintf("{\"seq\":%d,\"key\":%d}", ev.Seq, ev.Key))
		case KGateClose:
			cw.Event("{\"name\":\"gate closed\",\"cat\":\"gate\",\"ph\":\"B\",\"ts\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"key\":%d}}",
				ev.Cycle, pid, gateTid, ev.Key)
		case KGateReopen:
			cw.Event("{\"name\":\"gate closed\",\"cat\":\"gate\",\"ph\":\"E\",\"ts\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"key\":%d}}",
				ev.Cycle, pid, gateTid, ev.Key)
		case KSquash:
			cw.instant(pid, tid, fmt.Sprintf("squash (%s)", ev.Cause), ev.Cycle,
				fmt.Sprintf("{\"line\":\"%#x\",\"flushed\":%d,\"from_idx\":%d}", ev.Addr, ev.N, ev.TraceIdx))
		case KSBInsert:
			cw.instant(pid, tid, fmt.Sprintf("SB insert [%#x]", ev.Addr), ev.Cycle,
				fmt.Sprintf("{\"seq\":%d,\"key\":%d}", ev.Seq, ev.Key))
		case KSnoop:
			cw.instant(pid, tid, fmt.Sprintf("snoop %s [%#x]", ev.Cause, ev.Addr), ev.Cycle, "")
		}
	}
	// Instructions still in flight when the record ended.
	for _, seq := range order {
		if s := open[seq]; s != nil {
			cw.inst(pid, tid, s, "inflight", last)
		}
	}
}

// inst emits one instruction-lifetime complete event.
func (cw *ChromeWriter) inst(pid, tid int, s *span, cat string, end uint64) {
	name := s.instLabel()
	if s.slf {
		name += " (SLF)"
	}
	cw.Event("{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\"tid\":%d,\"args\":{\"seq\":%d,\"idx\":%d,\"issue\":%d,\"perform\":%d}}",
		name, cat, s.dispatch, end-s.dispatch, pid, tid, s.seq, s.traceIdx, s.issue, s.perform)
}

// instant emits one thread-scoped instant event; args is a pre-rendered
// JSON object or "".
func (cw *ChromeWriter) instant(pid, tid int, name string, ts uint64, args string) {
	if args == "" {
		cw.Event("{\"name\":%q,\"cat\":\"mem\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%d,\"pid\":%d,\"tid\":%d}",
			name, ts, pid, tid)
		return
	}
	cw.Event("{\"name\":%q,\"cat\":\"mem\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%d,\"pid\":%d,\"tid\":%d,\"args\":%s}",
		name, ts, pid, tid, args)
}
