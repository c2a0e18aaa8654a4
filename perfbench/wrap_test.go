package main

import (
	"reflect"
	"testing"

	"rfdet"
	"rfdet/internal/api"
	"rfdet/internal/workloads"
)

// fakeThread records which api.Thread methods were called on it.
type fakeThread struct {
	id     api.ThreadID
	called map[string]int
	child  *fakeThread
}

func newFake(id api.ThreadID) *fakeThread {
	return &fakeThread{id: id, called: map[string]int{}}
}

func (f *fakeThread) hit(name string) { f.called[name]++ }

func (f *fakeThread) ID() api.ThreadID            { f.hit("ID"); return f.id }
func (f *fakeThread) Load8(api.Addr) uint8        { f.hit("Load8"); return 0 }
func (f *fakeThread) Store8(api.Addr, uint8)      { f.hit("Store8") }
func (f *fakeThread) Load32(api.Addr) uint32      { f.hit("Load32"); return 0 }
func (f *fakeThread) Store32(api.Addr, uint32)    { f.hit("Store32") }
func (f *fakeThread) Load64(api.Addr) uint64      { f.hit("Load64"); return 0 }
func (f *fakeThread) Store64(api.Addr, uint64)    { f.hit("Store64") }
func (f *fakeThread) LoadF64(api.Addr) float64    { f.hit("LoadF64"); return 0 }
func (f *fakeThread) StoreF64(api.Addr, float64)  { f.hit("StoreF64") }
func (f *fakeThread) ReadBytes(api.Addr, []byte)  { f.hit("ReadBytes") }
func (f *fakeThread) WriteBytes(api.Addr, []byte) { f.hit("WriteBytes") }
func (f *fakeThread) Malloc(uint64) api.Addr      { f.hit("Malloc"); return 0 }
func (f *fakeThread) Free(api.Addr)               { f.hit("Free") }
func (f *fakeThread) Lock(api.Addr)               { f.hit("Lock") }
func (f *fakeThread) Unlock(api.Addr)             { f.hit("Unlock") }
func (f *fakeThread) Wait(api.Addr, api.Addr)     { f.hit("Wait") }
func (f *fakeThread) Signal(api.Addr)             { f.hit("Signal") }
func (f *fakeThread) Broadcast(api.Addr)          { f.hit("Broadcast") }
func (f *fakeThread) Barrier(api.Addr, int)       { f.hit("Barrier") }
func (f *fakeThread) Join(api.ThreadID)           { f.hit("Join") }
func (f *fakeThread) AtomicAdd64(api.Addr, uint64) uint64 {
	f.hit("AtomicAdd64")
	return 0
}
func (f *fakeThread) AtomicCAS64(api.Addr, uint64, uint64) bool {
	f.hit("AtomicCAS64")
	return false
}
func (f *fakeThread) Tick(uint64)       { f.hit("Tick") }
func (f *fakeThread) Observe(...uint64) { f.hit("Observe") }

// Spawn runs the child body at once on a fresh fake, as thread 1.
func (f *fakeThread) Spawn(fn api.ThreadFunc) api.ThreadID {
	f.hit("Spawn")
	f.child = newFake(1)
	fn(f.child)
	return 1
}

func TestWrapperForwardsEveryMethod(t *testing.T) {
	inner := newFake(0)
	rec := newRecorder()
	var w api.Thread
	rec.wrap(func(th api.Thread) { w = th })(inner)
	iface := reflect.TypeOf((*api.Thread)(nil)).Elem()
	wv := reflect.ValueOf(w)
	for i := 0; i < iface.NumMethod(); i++ {
		m := iface.Method(i)
		mt := wv.MethodByName(m.Name).Type()
		var args []reflect.Value
		for j := 0; j < mt.NumIn(); j++ {
			in := mt.In(j)
			if mt.IsVariadic() && j == mt.NumIn()-1 {
				break
			}
			if in == reflect.TypeOf(api.ThreadFunc(nil)) {
				args = append(args, reflect.ValueOf(api.ThreadFunc(func(api.Thread) {})))
				continue
			}
			args = append(args, reflect.Zero(in))
		}
		before := inner.called[m.Name]
		wv.MethodByName(m.Name).Call(args)
		if inner.called[m.Name] != before+1 {
			t.Errorf("wrapper method %s did not forward to the runtime's handle", m.Name)
		}
	}
}

func TestWrapperWrapsSpawnedChildren(t *testing.T) {
	inner := newFake(0)
	rec := newRecorder()
	var child api.Thread
	rec.wrap(func(th api.Thread) {
		th.Spawn(func(c api.Thread) {
			child = c
			c.Lock(8)
		})
	})(inner)
	cw, ok := child.(*thread)
	if !ok {
		t.Fatalf("spawned child got handle %T, want the timing wrapper", child)
	}
	if cw.in != api.Thread(inner.child) || inner.child.called["Lock"] != 1 {
		t.Fatalf("child wrapper does not forward to the child's own handle")
	}
	if len(rec.logs) != 2 || len(cw.log.calls) != 1 || cw.log.calls[0].op != opLock {
		t.Fatalf("child calls not recorded: %d logs, child log %+v", len(rec.logs), cw.log.calls)
	}
}

// TestWrappedMatchesUnwrapped runs every workload at test size bare, behind
// the wrapper, and behind the wrapper with phase tracing, and requires the
// same output and virtual time from all three; the wrapper's call counts
// must match the runtime's own sync counters.
func TestWrappedMatchesUnwrapped(t *testing.T) {
	opts := rfdet.DefaultOptions()
	opts.PhaseTrace = true
	traced := rfdet.New(opts)
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			bare, err := rfdet.NewCI().Run(w.prog(workloads.SizeTest, 7))
			if err != nil {
				t.Fatal(err)
			}
			for _, rt := range []rfdet.Runtime{rfdet.NewCI(), traced} {
				rec := newRecorder()
				rep, err := rt.Run(rec.wrap(w.prog(workloads.SizeTest, 7)))
				if err != nil {
					t.Fatal(err)
				}
				if rep.OutputHash != bare.OutputHash || rep.VirtualTime != bare.VirtualTime {
					t.Fatalf("wrapped: hash %#x vtime %d, bare: hash %#x vtime %d",
						rep.OutputHash, rep.VirtualTime, bare.OutputHash, bare.VirtualTime)
				}
				var n [numOps]uint64
				for _, l := range rec.logs {
					for _, c := range l.calls {
						n[c.op]++
					}
				}
				st := rep.Stats
				want := map[op]uint64{opLock: st.Locks, opUnlock: st.Unlocks, opWait: st.Waits,
					opSignal: st.Signals, opBarrier: st.Barriers, opJoin: st.Joins,
					opSpawn: st.Forks, opAtomic: st.AtomicsOps}
				for o, v := range want {
					if n[o] != v {
						t.Errorf("%s: wrapper counted %d calls, runtime counted %d", o, n[o], v)
					}
				}
				if len(rec.logs) != rep.Threads {
					t.Errorf("wrapper saw %d threads, runtime ran %d", len(rec.logs), rep.Threads)
				}
			}
		})
	}
}
