package mem

import (
	"sesa/internal/config"
	"sesa/internal/hist"
	"sesa/internal/noc"
	"sesa/internal/obs"
	"sesa/internal/sched"
)

// Stats accumulates memory-hierarchy counters.
type Stats struct {
	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64
	L3Hits, L3Misses uint64
	MemAccesses      uint64
	InvalsSent       uint64
	L1Evictions      uint64
	L2Evictions      uint64
	L3Evictions      uint64
	DirEvictions     uint64
	Writebacks       uint64
	Upgrades         uint64
	OwnerForwards    uint64
	Prefetches       uint64
	StoresCompleted  uint64
	LoadsCompleted   uint64
	// InvisibleLoads counts LoadInvisible requests: reads that change no
	// coherence state (370-RCP).
	InvisibleLoads uint64
}

// Client is the hierarchy's per-core notification surface: the core-side
// half of every memory transaction, invoked when batched events fire. It
// replaces the old per-request callback closures — requests carry an opaque
// uint64 ref instead, so issuing a memory operation allocates nothing.
//
// OnLineRemoved is called when a line leaves the core's private caches: by a
// remote invalidation (eviction=false) or by a local capacity eviction
// (eviction=true). The core snoops its load queue on both, as the paper
// prescribes (Section IV, "Evictions"). The other three deliver completions
// for the ref passed to Load/Store/RMW; ref 0 requests no notification.
type Client interface {
	OnLineRemoved(lineAddr, when uint64, eviction bool)
	OnLoadDone(ref, val, when uint64)
	OnStoreWrote(ref, when uint64)
	OnRMWDone(ref, old, when uint64)
}

// Event kinds scheduled by the hierarchy on the shared queue. The hierarchy
// is the queue's only producer and, as the sched.Handler installed by the
// machine, its only consumer.
const (
	evInval       sched.Kind = iota // remove line from a core's private caches + snoop
	evEvictNotify                   // snoop only: the array already evicted the line
	evDowngrade                     // owner's private copies drop to Shared
	evLoadDone                      // read the image, deliver the load value
	evStoreWrote                    // write the image, deliver the insertion cycle
	evRMWDone                       // read-modify-write the image, deliver the old value
)

// Hierarchy is the full memory system: per-core private L1D+L2, shared L3,
// sparse directory, MESI with write-atomic invalidation, all timed through
// the NoC model and the event queue.
//
// The hierarchy carries real data values at 8-byte-word granularity in a
// single memory image that is updated at each store's memory-order insertion
// point (its completion); loads read the image at their perform cycle.
// Litmus outcomes therefore emerge from microarchitectural timing rather
// than from scripted results.
type Hierarchy struct {
	cfg   config.Memory
	cores int
	net   *noc.Network
	evq   *sched.EventQueue

	l1  []*Array
	l2  []*Array
	l3  *Array
	dir *Directory

	// image carries the memory-order data values at 8-byte-word
	// granularity: word-aligned address -> value, in a flat open-addressing
	// table that grows by doubling.
	image addrTable

	clients []Client

	// tracers holds the per-core observability sinks, events and load
	// histograms both; entries are nil when no tracer is attached.
	tracers []*obs.CoreTracer

	// busyUntil serializes coherence transactions per line, like a
	// blocking directory entry: line address -> busy horizon, in the same
	// flat table layout as image. now tracks the latest request time seen,
	// so lineBusy can distinguish live transactions from finished ones. A
	// transaction that extends a line's window (a directory-path load, any
	// store) probes the table once and holds the line's slot until it
	// releases the line: nothing in between inserts another line.
	busyUntil addrTable
	now       uint64

	// pref tracks the per-core stride prefetcher state.
	pref []strideState

	Stats Stats
}

type strideState struct {
	lastMiss uint64
	stride   int64
	streak   int
}

// NewHierarchy builds the memory system for the given core count.
func NewHierarchy(cores int, cfg config.Memory, net *noc.Network, evq *sched.EventQueue) *Hierarchy {
	h := &Hierarchy{
		cfg:       cfg,
		cores:     cores,
		net:       net,
		evq:       evq,
		l3:        NewHashedArray(config.Cache{SizeBytes: cfg.L3.SizeBytes * cfg.L3Banks, Ways: cfg.L3.Ways, LineBytes: cfg.L3.LineBytes, HitCycles: cfg.L3.HitCycles}),
		dir:       NewDirectory(cores, cfg.L2, cfg.DirectoryWays, cfg.DirectoryCoverage, cfg.L2.LineBytes),
		image:     newAddrTable(0),
		clients:   make([]Client, cores),
		tracers:   make([]*obs.CoreTracer, cores),
		busyUntil: newAddrTable(0),
		pref:      make([]strideState, cores),
	}
	h.l1 = make([]*Array, cores)
	h.l2 = make([]*Array, cores)
	for i := 0; i < cores; i++ {
		h.l1[i] = NewArray(cfg.L1D)
		h.l2[i] = NewArray(cfg.L2)
	}
	h.Reset()
	return h
}

// Reset returns the hierarchy to the state NewHierarchy builds, on the same
// network and event queue: every cache array and the directory empty, the
// memory image and busy horizons empty, zero counters, and no client or
// tracer. It keeps its storage: the allocated pages are zeroed, which reads
// exactly as unallocated (DESIGN.md §6 item 6), and the address tables keep
// their capacity, which no result can see (item 4).
func (h *Hierarchy) Reset() {
	*h = Hierarchy{
		cfg: h.cfg, cores: h.cores, net: h.net, evq: h.evq,
		l1: h.l1, l2: h.l2, l3: h.l3, dir: h.dir,
		image: h.image, busyUntil: h.busyUntil,
		clients: h.clients, tracers: h.tracers, pref: h.pref,
	}
	for i := range h.l1 {
		h.l1[i].reset()
		h.l2[i].reset()
	}
	h.l3.reset()
	h.dir.reset()
	h.image.clear()
	h.busyUntil.clear()
	clear(h.clients)
	clear(h.tracers)
	clear(h.pref)
}

// SetClient registers the core's notification surface.
func (h *Hierarchy) SetClient(core int, c Client) { h.clients[core] = c }

// HandleBatch fires a drained batch of due events in delivery order. The
// machine installs the hierarchy as the clock's handler; one drain hands the
// core side a slice view of everything due this cycle instead of one
// callback invocation per message.
func (h *Hierarchy) HandleBatch(evs []sched.Event) {
	for i := range evs {
		ev := &evs[i]
		core := int(ev.Core)
		switch ev.Kind {
		case evInval:
			h.l1[core].SetState(ev.Addr, Invalid)
			h.l2[core].SetState(ev.Addr, Invalid)
			h.recordSnoop(core, ev.Addr, ev.Cycle, ev.Evict)
			if c := h.clients[core]; c != nil {
				c.OnLineRemoved(ev.Addr, ev.Cycle, ev.Evict)
			}
		case evEvictNotify:
			h.recordSnoop(core, ev.Addr, ev.Cycle, true)
			if c := h.clients[core]; c != nil {
				c.OnLineRemoved(ev.Addr, ev.Cycle, true)
			}
		case evDowngrade:
			h.l1[core].SetState(ev.Addr, Shared)
			h.l2[core].SetState(ev.Addr, Shared)
		case evLoadDone:
			if ev.Ref != 0 {
				h.clients[core].OnLoadDone(ev.Ref, h.ReadImage(ev.Addr, ev.Size), ev.Cycle)
			}
		case evStoreWrote:
			h.WriteImage(ev.Addr, ev.Size, ev.Val)
			if ev.Ref != 0 {
				h.clients[core].OnStoreWrote(ev.Ref, ev.Cycle)
			}
		case evRMWDone:
			old := h.ReadImage(ev.Addr, ev.Size)
			h.WriteImage(ev.Addr, ev.Size, old+ev.Val)
			if ev.Ref != 0 {
				h.clients[core].OnRMWDone(ev.Ref, old, ev.Cycle)
			}
		}
	}
}

// AttachTracer sets the observability sink for one core's snoop events and
// load latencies (nil disables it).
func (h *Hierarchy) AttachTracer(core int, t *obs.CoreTracer) { h.tracers[core] = t }

// recordSnoop logs the delivery of an invalidation or eviction to a core.
func (h *Hierarchy) recordSnoop(core int, lineAddr, when uint64, eviction bool) {
	if tr := h.tracers[core]; tr != nil {
		cause := obs.CauseInval
		if eviction {
			cause = obs.CauseEvict
		}
		tr.Record(obs.Event{Cycle: when, Kind: obs.KSnoop, Cause: cause,
			Key: obs.KeyNone, Addr: lineAddr})
	}
}

// LineAddr returns the line-aligned address containing addr.
func (h *Hierarchy) LineAddr(addr uint64) uint64 { return h.l1[0].LineAddr(addr) }

// Reserve presizes the per-run address tables for a footprint of the given
// distinct word and line counts, so that many further accesses pay no
// rehash. It is optional: the tables start small and double as they fill,
// and they are never iterated, so their size cannot change a result. The
// counts are hints; the tables still grow if exceeded.
func (h *Hierarchy) Reserve(words, lines int) {
	h.image.reserve(words)
	h.busyUntil.reserve(lines)
}

// ---- data image -----------------------------------------------------------

func wordAddr(addr uint64) uint64 { return addr &^ 7 }

// ReadImage returns the current memory-order value of the size-byte location
// at addr.
func (h *Hierarchy) ReadImage(addr uint64, size uint8) uint64 {
	w := h.image.get(wordAddr(addr))
	if size == 0 || size >= 8 {
		return w
	}
	shift := (addr & 7) * 8
	mask := (uint64(1) << (uint64(size) * 8)) - 1
	return (w >> shift) & mask
}

// WriteImage writes val into the memory image immediately; used for
// initialization and by store completion.
func (h *Hierarchy) WriteImage(addr uint64, size uint8, val uint64) {
	wa := wordAddr(addr)
	if size == 0 || size >= 8 {
		h.image.put(wa, val)
		return
	}
	shift := (addr & 7) * 8
	mask := ((uint64(1) << (uint64(size) * 8)) - 1) << shift
	h.image.put(wa, (h.image.get(wa)&^mask)|((val<<shift)&mask))
}

// ---- latency building blocks ----------------------------------------------

func (h *Hierarchy) ctrl() uint64 { return uint64(h.net.Delay(noc.Control)) }
func (h *Hierarchy) data() uint64 { return uint64(h.net.Delay(noc.Data)) }

// lineBusy reports whether a coherence transaction on lineAddr is still in
// flight relative to the latest request time seen by the hierarchy.
func (h *Hierarchy) lineBusy(lineAddr uint64) bool {
	return h.busyUntil.get(lineAddr) > h.now
}

// claimLine returns the cycle at which a read of lineAddr wanted at t can
// start: no earlier than the end of any transaction in flight on the line.
func (h *Hierarchy) claimLine(lineAddr, t uint64) uint64 {
	return max(t, h.busyUntil.get(lineAddr))
}

func (h *Hierarchy) advance(t uint64) {
	if t > h.now {
		h.now = t
	}
}

// ---- invalidations and evictions -------------------------------------------

// invalidateCore removes the line from core's private caches at cycle when
// and notifies the core's client.
func (h *Hierarchy) invalidateCore(core int, lineAddr, when uint64, eviction bool) {
	h.evq.Schedule(sched.Event{Cycle: when, Kind: evInval, Evict: eviction,
		Core: int32(core), Addr: lineAddr})
}

// notifyEviction tells the core's own LQ about a local eviction without
// touching cache state (the array already evicted the victim).
func (h *Hierarchy) notifyEviction(core int, lineAddr, when uint64) {
	h.Stats.L1Evictions++
	h.evq.Schedule(sched.Event{Cycle: when, Kind: evEvictNotify,
		Core: int32(core), Addr: lineAddr})
}

// fillPrivate inserts lineAddr into core's L2 and L1 with state s, handling
// eviction notifications at cycle when. The private hierarchy is
// non-inclusive (as in Skylake): an L2 victim still resident in the L1
// survives there, so L2 churn does not back-invalidate hot L1 lines; the
// directory presence is dropped only when the line has left both levels.
func (h *Hierarchy) fillPrivate(core int, lineAddr uint64, s State, when uint64) {
	if v, ok := h.l2[core].Insert(lineAddr, s); ok {
		h.Stats.L2Evictions++
		if !h.l1[core].Resident(v.LineAddr) {
			h.dropFromDirectory(core, v.LineAddr, v.Dirty)
		}
	}
	if v, ok := h.l1[core].Insert(lineAddr, s); ok {
		// The LQ must be snooped on L1 evictions: an eviction filters
		// out future invalidations for loads that performed against
		// this line (Section IV, "Evictions").
		if !h.l2[core].Absorb(v.LineAddr, v.Dirty) {
			h.dropFromDirectory(core, v.LineAddr, v.Dirty)
		}
		h.notifyEviction(core, v.LineAddr, when)
	}
}

// refillL1 inserts lineAddr, which core's L2 holds, into core's L1 with
// state s, handling the victim at cycle when: a dirty victim is marked
// Modified in the L2 and the core's LQ is snooped. Unlike fillPrivate it
// leaves the directory untouched, even for a victim the L2 no longer holds.
func (h *Hierarchy) refillL1(core int, lineAddr uint64, s State, when uint64) {
	if v, ok := h.l1[core].Insert(lineAddr, s); ok {
		if v.Dirty {
			h.l2[core].SetState(v.LineAddr, Modified)
		}
		h.notifyEviction(core, v.LineAddr, when)
	}
}

// dropFromDirectory processes a non-silent private-cache eviction: the
// directory clears the core's presence and accounts a writeback for dirty
// data.
func (h *Hierarchy) dropFromDirectory(core int, lineAddr uint64, dirty bool) {
	e := h.dir.Lookup(lineAddr)
	if e == nil {
		return
	}
	if int(e.owner) == core {
		e.owner = -1
		if dirty {
			h.Stats.Writebacks++
			e.presentL3 = true
			h.insertL3(lineAddr)
		}
	}
	e.sharers &^= 1 << uint(core)
	if e.owner == -1 && e.sharers == 0 && !e.presentL3 {
		*e = dirEntry{}
	}
}

// insertL3 places the line in the L3 array, processing the victim.
func (h *Hierarchy) insertL3(lineAddr uint64) {
	if v, ok := h.l3.Insert(lineAddr, Shared); ok {
		h.Stats.L3Evictions++
		if ve := h.dir.Lookup(v.LineAddr); ve != nil {
			ve.presentL3 = false
			if ve.owner == -1 && ve.sharers == 0 {
				*ve = dirEntry{}
			}
		}
		if v.Dirty {
			h.Stats.Writebacks++
		}
	}
}

// evictDirEntry invalidates every holder of a victimized directory entry.
// The invalidations travel as control messages and snoop the remote LQs,
// reproducing the eviction-induced store-atomicity misspeculations the
// paper reports for cache-pressure-heavy applications.
func (h *Hierarchy) evictDirEntry(ev dirEntry, t uint64) {
	h.Stats.DirEvictions++
	if ev.owner >= 0 {
		h.Stats.InvalsSent++
		h.invalidateCore(int(ev.owner), ev.tag, t+h.ctrl(), false)
	}
	for c := 0; c < h.cores; c++ {
		if ev.sharers&(1<<uint(c)) != 0 {
			h.Stats.InvalsSent++
			h.invalidateCore(c, ev.tag, t+h.ctrl(), false)
		}
	}
	if ev.presentL3 {
		h.l3.SetState(ev.tag, Invalid)
	}
}

// ---- load path --------------------------------------------------------------

// Load performs a data read for core at cycle t. The client's OnLoadDone
// runs at the perform cycle with the value read from the memory image at
// that cycle; ref 0 skips the notification (prefetch).
func (h *Hierarchy) Load(core int, addr uint64, size uint8, t uint64, ref uint64) {
	h.advance(t)
	when, lvl := h.loadLine(core, addr, t, false)
	h.Stats.LoadsCompleted++
	if tr := h.tracers[core]; tr != nil {
		tr.Observe(lvl, when-t)
	}
	h.evq.Schedule(sched.Event{Cycle: when, Kind: evLoadDone, Size: size,
		Core: int32(core), Addr: addr, Ref: ref})
	h.maybePrefetch(core, addr, t)
}

// LoadInvisible performs a data read that leaves no trace in the coherence
// state: the reversible-coherence (370-RCP) path for loads that are still
// speculative at issue time. The data-available cycle is computed from the
// same latency model as Load — L1/L2 residence, owner forward, L3 hit, or
// memory — but nothing is allocated, filled, downgraded, evicted or
// prefetched, no directory entry records the reader, and the line's busy
// window is not extended. Replacement state does change: each hit in the
// L1, L2, L3 or directory makes that line or entry the most recently used,
// as Load's lookups do, so an invisible load can keep a line resident that
// a later fill would otherwise have evicted (DESIGN.md §6b). Because the
// core never becomes a sharer, a later conflicting store will not
// invalidate it; the core is responsible for value-validating the load at
// retirement instead. The client's OnLoadDone runs at the perform cycle
// with the value read from the memory image at that cycle, exactly as for
// Load.
func (h *Hierarchy) LoadInvisible(core int, addr uint64, size uint8, t uint64, ref uint64) {
	h.advance(t)
	h.Stats.InvisibleLoads++
	lineAddr := h.LineAddr(addr)
	l1lat := uint64(h.cfg.L1D.HitCycles)
	var when uint64
	lvl := hist.LoadL3
	switch {
	case h.l1[core].Lookup(lineAddr) != Invalid:
		// Reading a resident copy still defers to any in-flight
		// transaction on the line (claimLine reads the busy window
		// without extending it).
		when, lvl = h.claimLine(lineAddr, t+l1lat), hist.LoadL1
	case h.l2[core].Lookup(lineAddr) != Invalid:
		when, lvl = h.claimLine(lineAddr, t+l1lat+uint64(h.cfg.L2.HitCycles)), hist.LoadL2
	default:
		req := h.claimLine(lineAddr, t+l1lat+uint64(h.cfg.L2.HitCycles)+h.ctrl())
		e := h.dir.Lookup(lineAddr)
		switch {
		case e != nil && e.owner >= 0 && int(e.owner) != core:
			// The owner supplies the data covertly: no downgrade, no
			// writeback, no sharer registration.
			when, lvl = req+h.ctrl()+h.data(), hist.LoadRemote
		case e != nil && e.presentL3 && h.l3.Lookup(lineAddr) != Invalid:
			when = req + uint64(h.cfg.L3.HitCycles) + h.data()
		default:
			when, lvl = req+uint64(h.cfg.L3.HitCycles)+uint64(h.cfg.MemCycles)+h.data(), hist.LoadMem
		}
	}
	h.Stats.LoadsCompleted++
	if tr := h.tracers[core]; tr != nil {
		tr.Observe(lvl, when-t)
	}
	h.evq.Schedule(sched.Event{Cycle: when, Kind: evLoadDone, Size: size,
		Core: int32(core), Addr: addr, Ref: ref})
}

// loadLine obtains a readable (S/E/M) copy of addr's line for core and
// returns the cycle at which the data is available plus the service level
// that supplied it (the latency-histogram bucket). prefetch suppresses the
// stride-prefetcher trigger.
func (h *Hierarchy) loadLine(core int, addr uint64, t uint64, prefetch bool) (uint64, hist.Metric) {
	lineAddr := h.LineAddr(addr)
	l1lat := uint64(h.cfg.L1D.HitCycles)
	if h.l1[core].Lookup(lineAddr) != Invalid {
		h.Stats.L1Hits++
		// claimLine clamps to any in-flight transaction on the line
		// (e.g. an ownership prefetch whose data has not arrived yet).
		return h.claimLine(lineAddr, t+l1lat), hist.LoadL1
	}
	h.Stats.L1Misses++
	t2 := t + l1lat + uint64(h.cfg.L2.HitCycles)
	if s := h.l2[core].Lookup(lineAddr); s != Invalid {
		h.Stats.L2Hits++
		// Fill L1 from L2; L1 state mirrors L2's.
		h.refillL1(core, lineAddr, s, t2)
		return h.claimLine(lineAddr, t2), hist.LoadL2
	}
	h.Stats.L2Misses++

	// Go to the L3/directory bank, serialized after any transaction in
	// flight on the line.
	busy := h.busyUntil.ref(lineAddr)
	req := max(t2+h.ctrl(), *busy)

	e, ev, evicted := h.dir.Allocate(lineAddr, h.lineBusy)
	if evicted {
		h.evictDirEntry(ev, req)
	}

	var dataAt uint64
	lvl := hist.LoadL3
	grant := Shared
	switch {
	case e.owner >= 0 && int(e.owner) != core:
		// Owner holds E/M: forward the request; the owner downgrades
		// to S and supplies the data.
		h.Stats.OwnerForwards++
		lvl = hist.LoadRemote
		owner := e.owner
		fwd := req + h.ctrl()
		h.evq.Schedule(sched.Event{Cycle: fwd, Kind: evDowngrade,
			Core: int32(owner), Addr: lineAddr})
		dataAt = fwd + h.data()
		h.Stats.Writebacks++
		e.presentL3 = true
		h.insertL3(lineAddr)
		e.sharers |= 1 << uint(owner)
		e.owner = -1
	case e.presentL3 && h.l3.Lookup(lineAddr) != Invalid:
		h.Stats.L3Hits++
		dataAt = req + uint64(h.cfg.L3.HitCycles) + h.data()
	default:
		h.Stats.L3Misses++
		h.Stats.MemAccesses++
		lvl = hist.LoadMem
		dataAt = req + uint64(h.cfg.L3.HitCycles) + uint64(h.cfg.MemCycles) + h.data()
		e.presentL3 = true
		h.insertL3(lineAddr)
	}
	if e.sharers == 0 && e.owner == -1 {
		grant = Exclusive
		e.owner = int8(core)
	} else {
		e.sharers |= 1 << uint(core)
	}
	*busy = dataAt
	h.fillPrivate(core, lineAddr, grant, dataAt)
	return dataAt, lvl
}

// maybePrefetch runs the per-core stride detector and issues a next-stride
// line fetch on a stable stride (Table III: stride L1 prefetcher).
func (h *Hierarchy) maybePrefetch(core int, addr uint64, t uint64) {
	if !h.cfg.StridePrefetch {
		return
	}
	p := &h.pref[core]
	lineAddr := h.LineAddr(addr)
	st := int64(lineAddr) - int64(p.lastMiss)
	if st != 0 && st == p.stride {
		p.streak++
	} else {
		p.streak = 0
	}
	p.stride = st
	p.lastMiss = lineAddr
	if p.streak >= 2 {
		next := uint64(int64(lineAddr) + st)
		if !h.l1[core].Resident(next) && !h.lineBusy(next) {
			h.Stats.Prefetches++
			// Prefetches do not record latency: they are not on any
			// load's critical path.
			h.loadLine(core, next, t, true)
		}
	}
}

// ---- store path -------------------------------------------------------------

// Store performs the memory-order insertion of a store draining from the
// store buffer: it obtains M permission (invalidating all other copies and
// waiting for their acknowledgements: the protocol is write-atomic), writes
// the memory image at the completion cycle, and runs done. notBefore lets
// the core pipeline its SB drain while keeping TSO's in-order insertion: a
// store never completes before its program-order predecessor. The insertion
// cycle is returned; the client's OnStoreWrote runs at that cycle after the
// image write (ref 0 skips the notification).
func (h *Hierarchy) Store(core int, addr uint64, size uint8, val uint64, t, notBefore uint64, ref uint64) uint64 {
	h.advance(t)
	when := h.storeLine(core, addr, t, notBefore)
	h.Stats.StoresCompleted++
	h.evq.Schedule(sched.Event{Cycle: when, Kind: evStoreWrote, Size: size,
		Core: int32(core), Addr: addr, Val: val, Ref: ref})
	return when
}

// RMW atomically reads the old value and writes old+add at the completion
// cycle; the client's OnRMWDone then runs with the old value (ref 0 skips
// the notification). The caller is responsible for TSO atomic semantics (SB
// drain).
func (h *Hierarchy) RMW(core int, addr uint64, size uint8, add uint64, t uint64, ref uint64) {
	h.advance(t)
	when := h.storeLine(core, addr, t, 0)
	h.Stats.StoresCompleted++
	h.evq.Schedule(sched.Event{Cycle: when, Kind: evRMWDone, Size: size,
		Core: int32(core), Addr: addr, Val: add, Ref: ref})
}

// PrefetchOwner issues a read-for-ownership prefetch for a store that has
// resolved its address, as x86 cores do at store execution: by the time the
// store drains from the SB, the line is usually already in M state and the
// drain is an L1 hit. Without it, a serial store-buffer drain would expose
// every store miss latency in sequence.
func (h *Hierarchy) PrefetchOwner(core int, addr uint64, t uint64) {
	if !h.cfg.RFOPrefetch {
		return
	}
	h.advance(t)
	lineAddr := h.LineAddr(addr)
	if s := h.l1[core].Peek(lineAddr); s == Modified || s == Exclusive {
		return
	}
	if h.lineBusy(lineAddr) {
		return // a transaction is already in flight; the drain will wait
	}
	h.Stats.Prefetches++
	h.storeLine(core, addr, t, 0)
}

// storeLine obtains Modified permission for core on addr's line and returns
// the cycle at which the write is globally performed, never earlier than
// notBefore (in-order SB insertion).
// storeCommitCycles is the SB-to-L1 commit latency on an owned line (the
// L1 write takes the full array access).
const storeCommitCycles = 4

func (h *Hierarchy) storeLine(core int, addr uint64, t, notBefore uint64) uint64 {
	lineAddr := h.LineAddr(addr)
	t2 := t + uint64(h.cfg.L1D.HitCycles) + uint64(h.cfg.L2.HitCycles)
	busy := h.busyUntil.ref(lineAddr)
	// seal clamps the insertion cycle to notBefore and extends the line's
	// busy window to it, so that later same-line transactions serialize
	// after the write.
	seal := func(done uint64) uint64 {
		done = max(done, notBefore)
		*busy = done
		return done
	}
	// The owning-state fast paths are valid only when no transaction is
	// in flight on the line: a concurrent reader may already be a sharer
	// in directory state (with our downgrade still travelling), in which
	// case the write must go through the directory and invalidate it —
	// otherwise that core would keep a stale copy past our insertion,
	// silently breaking write atomicity.
	var s2 State
	if *busy <= t {
		switch h.l1[core].Lookup(lineAddr) {
		case Modified:
			h.Stats.L1Hits++
			return seal(t + storeCommitCycles)
		case Exclusive:
			// Silent E->M upgrade.
			h.Stats.L1Hits++
			h.l1[core].SetState(lineAddr, Modified)
			h.l2[core].SetState(lineAddr, Modified)
			return seal(t + storeCommitCycles)
		}
		if s2 = h.l2[core].Lookup(lineAddr); s2 == Modified || s2 == Exclusive {
			h.Stats.L1Misses++
			h.Stats.L2Hits++
			h.l2[core].SetState(lineAddr, Modified)
			h.refillL1(core, lineAddr, Modified, t2)
			return seal(t2)
		}
	} else if s2 = h.l2[core].Peek(lineAddr); s2 >= Exclusive || h.l1[core].Peek(lineAddr) >= Exclusive {
		h.Stats.L1Hits++ // owned (E or M) but a transaction is in flight: resolve at the directory
	} else {
		h.Stats.L1Misses++
	}
	// Upgrade or miss: go to the directory.
	switch s2 {
	case Shared:
		h.Stats.Upgrades++
	case Invalid:
		h.Stats.L2Misses++
	}
	req := max(t2+h.ctrl(), *busy)

	e, ev, evicted := h.dir.Allocate(lineAddr, h.lineBusy)
	if evicted {
		h.evictDirEntry(ev, req)
	}

	// Invalidate every other holder; the write completes only after all
	// acks (write atomicity). On the fully connected NoC invalidations
	// travel in parallel, so the ack time is one control round trip.
	ackAt := req
	sentInval := false
	if e.owner >= 0 && int(e.owner) != core {
		h.Stats.InvalsSent++
		h.invalidateCore(int(e.owner), lineAddr, req+h.ctrl(), false)
		sentInval = true
		// Dirty data is forwarded to the requester.
		h.Stats.OwnerForwards++
	}
	for c := 0; c < h.cores; c++ {
		if c != core && e.sharers&(1<<uint(c)) != 0 {
			h.Stats.InvalsSent++
			h.invalidateCore(c, lineAddr, req+h.ctrl(), false)
			sentInval = true
		}
	}
	if sentInval {
		ackAt = req + 2*h.ctrl()
	}

	// Data arrival, overlapped with invalidations.
	var dataAt uint64
	switch {
	case s2 != Invalid:
		dataAt = req // upgrade: no data needed
	case e.owner >= 0 && int(e.owner) != core:
		dataAt = req + h.ctrl() + h.data()
	case e.presentL3 && h.l3.Lookup(lineAddr) != Invalid:
		h.Stats.L3Hits++
		dataAt = req + uint64(h.cfg.L3.HitCycles) + h.data()
	default:
		h.Stats.L3Misses++
		h.Stats.MemAccesses++
		dataAt = req + uint64(h.cfg.L3.HitCycles) + uint64(h.cfg.MemCycles) + h.data()
	}

	done := seal(max(dataAt, ackAt))
	e.owner = int8(core)
	e.sharers = 0
	// The L3 holds a line exactly when its entry says so (DESIGN.md §6
	// item 9), so an absent copy needs no walk.
	if e.presentL3 {
		e.presentL3 = false
		h.l3.SetState(lineAddr, Invalid)
	}
	h.fillPrivate(core, lineAddr, Modified, done)
	return done
}
