package main

import (
	"sync"
	"time"

	"rfdet/internal/api"
)

// op names one timed entry point of the runtime's public sync and
// allocation API. Broadcast is timed as signal and both atomics as atomic,
// so the names match the per-layer metric names.
type op uint8

const (
	opLock op = iota
	opUnlock
	opWait
	opSignal
	opBarrier
	opJoin
	opSpawn
	opAtomic
	opMalloc
	opFree
	numOps
)

var opNames = [numOps]string{
	"lock", "unlock", "wait", "signal", "barrier", "join", "spawn", "atomic", "malloc", "free",
}

func (o op) String() string { return opNames[o] }

// call is one timed API call: host nanoseconds since the recorder's base.
type call struct {
	op         op
	start, end int64
}

// threadLog is one logical thread's call history. Only the goroutine
// running the thread appends to it; the recorder reads it after Run has
// returned, which orders every append before the read.
type threadLog struct {
	id          api.ThreadID
	entry, exit int64 // host ns since base at body entry and return
	calls       []call
}

// recorder times every call a program makes through the api.Thread handles
// of one execution. It lives entirely outside the runtime: the runtime sees
// a forwarding handle and cannot tell it apart from its own.
type recorder struct {
	base time.Time

	mu   sync.Mutex
	logs []*threadLog
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// wrap returns main with every thread handle it (and its descendants) sees
// replaced by a timing wrapper.
func (r *recorder) wrap(main api.ThreadFunc) api.ThreadFunc {
	return func(t api.Thread) { r.body(t, main) }
}

func (r *recorder) body(t api.Thread, fn api.ThreadFunc) {
	log := &threadLog{id: t.ID()}
	r.mu.Lock()
	r.logs = append(r.logs, log)
	r.mu.Unlock()
	log.entry = r.now()
	fn(&thread{in: t, rec: r, log: log})
	log.exit = r.now()
}

// thread forwards every api.Thread method to the runtime's handle and times
// the sync and allocation calls. Loads, stores and Tick are forwarded
// untimed: they are user compute, and timing them would swamp it.
type thread struct {
	in  api.Thread
	rec *recorder
	log *threadLog
}

var _ api.Thread = (*thread)(nil)

func (w *thread) done(o op, start int64) {
	w.log.calls = append(w.log.calls, call{op: o, start: start, end: w.rec.now()})
}

func (w *thread) ID() api.ThreadID                 { return w.in.ID() }
func (w *thread) Load8(a api.Addr) uint8           { return w.in.Load8(a) }
func (w *thread) Store8(a api.Addr, v uint8)       { w.in.Store8(a, v) }
func (w *thread) Load32(a api.Addr) uint32         { return w.in.Load32(a) }
func (w *thread) Store32(a api.Addr, v uint32)     { w.in.Store32(a, v) }
func (w *thread) Load64(a api.Addr) uint64         { return w.in.Load64(a) }
func (w *thread) Store64(a api.Addr, v uint64)     { w.in.Store64(a, v) }
func (w *thread) LoadF64(a api.Addr) float64       { return w.in.LoadF64(a) }
func (w *thread) StoreF64(a api.Addr, v float64)   { w.in.StoreF64(a, v) }
func (w *thread) ReadBytes(a api.Addr, buf []byte) { w.in.ReadBytes(a, buf) }
func (w *thread) WriteBytes(a api.Addr, d []byte)  { w.in.WriteBytes(a, d) }
func (w *thread) Tick(n uint64)                    { w.in.Tick(n) }
func (w *thread) Observe(vals ...uint64)           { w.in.Observe(vals...) }

func (w *thread) Malloc(size uint64) api.Addr {
	s := w.rec.now()
	a := w.in.Malloc(size)
	w.done(opMalloc, s)
	return a
}

func (w *thread) Free(a api.Addr) {
	s := w.rec.now()
	w.in.Free(a)
	w.done(opFree, s)
}

func (w *thread) Lock(m api.Addr) {
	s := w.rec.now()
	w.in.Lock(m)
	w.done(opLock, s)
}

func (w *thread) Unlock(m api.Addr) {
	s := w.rec.now()
	w.in.Unlock(m)
	w.done(opUnlock, s)
}

func (w *thread) Wait(c, m api.Addr) {
	s := w.rec.now()
	w.in.Wait(c, m)
	w.done(opWait, s)
}

func (w *thread) Signal(c api.Addr) {
	s := w.rec.now()
	w.in.Signal(c)
	w.done(opSignal, s)
}

func (w *thread) Broadcast(c api.Addr) {
	s := w.rec.now()
	w.in.Broadcast(c)
	w.done(opSignal, s)
}

func (w *thread) Barrier(b api.Addr, n int) {
	s := w.rec.now()
	w.in.Barrier(b, n)
	w.done(opBarrier, s)
}

// Spawn wraps the child's body so the child's handle is timed too.
func (w *thread) Spawn(fn api.ThreadFunc) api.ThreadID {
	s := w.rec.now()
	id := w.in.Spawn(func(c api.Thread) { w.rec.body(c, fn) })
	w.done(opSpawn, s)
	return id
}

func (w *thread) Join(id api.ThreadID) {
	s := w.rec.now()
	w.in.Join(id)
	w.done(opJoin, s)
}

func (w *thread) AtomicAdd64(a api.Addr, delta uint64) uint64 {
	s := w.rec.now()
	v := w.in.AtomicAdd64(a, delta)
	w.done(opAtomic, s)
	return v
}

func (w *thread) AtomicCAS64(a api.Addr, old, new uint64) bool {
	s := w.rec.now()
	ok := w.in.AtomicCAS64(a, old, new)
	w.done(opAtomic, s)
	return ok
}
