package fork

import (
	"bytes"
	"errors"
	"testing"

	"spacejmp/internal/arch"
	"spacejmp/internal/core"
	"spacejmp/internal/hw"
	"spacejmp/internal/kernel"
	"spacejmp/internal/stats"
)

const segName = "live.seg"

// liveStore is one node's live data segment, attached into its own VAS and
// switched into on th — the shape the cluster forks from.
type liveStore struct {
	sys *core.System
	obs *stats.Sink
	p   *core.Process
	th  *core.Thread
	vid core.VASID
	sid core.SegID
	h   core.Handle
}

func newLiveStore(t *testing.T) *liveStore {
	t.Helper()
	sys := kernel.New(hw.NewMachine(hw.SmallTest()))
	ls := &liveStore{sys: sys, obs: sys.EnableStats(64)}
	var err error
	if ls.p, err = sys.NewProcess(core.Creds{UID: 1000, GID: 1000}); err != nil {
		t.Fatal(err)
	}
	if ls.th, err = ls.p.NewThread(); err != nil {
		t.Fatal(err)
	}
	if ls.vid, err = ls.th.VASCreate("live.vas", 0o660); err != nil {
		t.Fatal(err)
	}
	if ls.sid, err = ls.th.SegAlloc(segName, core.GlobalBase, 1<<20, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := ls.th.SegAttachVAS(ls.vid, ls.sid, arch.PermRW); err != nil {
		t.Fatal(err)
	}
	if ls.h, err = ls.th.VASAttach(ls.vid); err != nil {
		t.Fatal(err)
	}
	if err := ls.th.VASSwitch(ls.h); err != nil {
		t.Fatal(err)
	}
	return ls
}

// write stores s at the start of page idx of the live segment.
func (ls *liveStore) write(t *testing.T, idx uint64, s string) {
	t.Helper()
	if err := ls.th.Write(core.GlobalBase+arch.VirtAddr(idx*arch.PageSize), []byte(s)); err != nil {
		t.Fatal(err)
	}
}

// close tears the live store down and checks every frame came back.
func (ls *liveStore) close(t *testing.T) {
	t.Helper()
	th := ls.th
	for _, err := range []error{
		th.VASSwitch(core.PrimaryHandle),
		th.VASDetach(ls.h),
		th.VASDestroy(ls.vid),
		th.SegFree(ls.sid),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	ls.p.Exit()
	if err := ls.sys.M.PM.CheckLeaks(0); err != nil {
		t.Fatal(err)
	}
}

func pageHas(img *core.SegmentImage, idx uint64, s string) bool {
	return bytes.HasPrefix(img.Pages[idx], []byte(s))
}

// TestForkImageFrozen: a view's image is the live segment at fork time,
// and writes after the fork never reach it.
func TestForkImageFrozen(t *testing.T) {
	ls := newLiveStore(t)
	e := New(ls.sys, ls.obs)
	ls.write(t, 0, "page0-v1")
	ls.write(t, 2, "page2-v1")

	v, err := e.Fork(ls.th, 7, segName)
	if err != nil {
		t.Fatal(err)
	}
	if v.Node() != 7 || v.Gen() != 1 || v.Invalid() {
		t.Fatalf("view node %d gen %d invalid %v, want node 7 gen 1 valid", v.Node(), v.Gen(), v.Invalid())
	}
	ls.write(t, 0, "page0-v2")
	ls.write(t, 1, "page1-v2")

	img, err := e.Image(v)
	if err != nil {
		t.Fatal(err)
	}
	if img.Seq != v.Gen() || !pageHas(img, 0, "page0-v1") || !pageHas(img, 2, "page2-v1") {
		t.Errorf("image seq %d pages 0/2 = %q / %q, want the fork-time contents", img.Seq, img.Pages[0][:8], img.Pages[2][:8])
	}
	if pageHas(img, 1, "page1-v2") {
		t.Error("image carries page 1's write from after the fork")
	}
	buf := make([]byte, 8)
	if err := ls.th.Read(core.GlobalBase, buf); err != nil || string(buf) != "page0-v2" {
		t.Errorf("live page 0 = %q, %v; want page0-v2", buf, err)
	}

	// A reader attached to the view sees the fork-time contents too.
	rd, err := ls.p.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	rh, err := rd.VASAttach(v.VID())
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.VASSwitch(rh); err != nil {
		t.Fatal(err)
	}
	if err := rd.Read(core.GlobalBase, buf); err != nil || string(buf) != "page0-v1" {
		t.Errorf("view page 0 = %q, %v; want page0-v1", buf, err)
	}
	if err := rd.VASSwitch(core.PrimaryHandle); err != nil {
		t.Fatal(err)
	}
	if err := rd.VASDetach(rh); err != nil {
		t.Fatal(err)
	}

	if err := e.Close(ls.th); err != nil {
		t.Fatal(err)
	}
	ls.close(t)
}

// TestForkCurrent: Current is the newest valid view per node, nil for a
// node never forked, and nil on a nil engine.
func TestForkCurrent(t *testing.T) {
	ls := newLiveStore(t)
	e := New(ls.sys, ls.obs)
	if (*Engine)(nil).Current(0) != nil || e.Current(0) != nil {
		t.Fatal("Current before any fork is non-nil")
	}
	ls.write(t, 0, "x")
	v1, err := e.Fork(ls.th, 0, segName)
	if err != nil {
		t.Fatal(err)
	}
	if e.Current(0) != v1 || e.Current(1) != nil {
		t.Fatalf("Current(0) = %v, Current(1) = %v; want v1 and nil", e.Current(0), e.Current(1))
	}
	v2, err := e.Fork(ls.th, 0, segName)
	if err != nil {
		t.Fatal(err)
	}
	if e.Current(0) != v2 || v2.Gen() <= v1.Gen() {
		t.Fatalf("after a second fork Current(0) = %v (gen %d), want v2 with a newer gen than %d", e.Current(0), v2.Gen(), v1.Gen())
	}
	if err := e.Close(ls.th); err != nil {
		t.Fatal(err)
	}
	if e.Current(0) != nil {
		t.Error("Current after Close is non-nil")
	}
	ls.close(t)
}

// TestForkInvalidateRetireRelease walks a view's whole lifecycle: a
// superseded view with no reader is released at the next fork; an
// invalidated view is fenced (Invalid, no image, not Current) and counted;
// a view a reader still holds survives the sweep and is released by Close.
// Every frame comes back at the end.
func TestForkInvalidateRetireRelease(t *testing.T) {
	ls := newLiveStore(t)
	e := New(ls.sys, ls.obs)
	ls.write(t, 0, "a")
	v1, err := e.Fork(ls.th, 0, segName)
	if err != nil {
		t.Fatal(err)
	}
	ls.write(t, 0, "b")
	v2, err := e.Fork(ls.th, 0, segName)
	if err != nil {
		t.Fatal(err)
	}
	fk := ls.obs.Snapshot().Cluster.Fork
	if fk.Forks != 2 || fk.Releases != 1 {
		t.Fatalf("after superseding v1: forks %d releases %d, want 2 and 1", fk.Forks, fk.Releases)
	}
	if _, err := ls.sys.SegmentImageOf(v1.SegName(), v1.Gen()); err == nil {
		t.Error("released view's segment still exists")
	}

	// A reader holds v2 across its invalidation.
	rd, err := ls.p.NewThread()
	if err != nil {
		t.Fatal(err)
	}
	rh, err := rd.VASAttach(v2.VID())
	if err != nil {
		t.Fatal(err)
	}
	e.InvalidateNode(0, "test")
	e.InvalidateNode(0, "test") // already fenced: counts nothing more
	if !v2.Invalid() || e.Current(0) != nil {
		t.Fatalf("after InvalidateNode: v2 invalid %v, Current %v; want invalid and nil", v2.Invalid(), e.Current(0))
	}
	if _, err := e.Image(v2); !errors.Is(err, core.ErrInvalid) {
		t.Errorf("Image of an invalidated view: %v, want ErrInvalid", err)
	}
	if got := ls.obs.Snapshot().Cluster.Fork.Invalidated; got != 1 {
		t.Errorf("invalidated = %d, want 1", got)
	}

	// The next fork's sweep must not release v2 from under its reader.
	ls.write(t, 0, "c")
	v3, err := e.Fork(ls.th, 0, segName)
	if err != nil {
		t.Fatal(err)
	}
	if got := ls.obs.Snapshot().Cluster.Fork.Releases; got != 1 {
		t.Errorf("releases = %d with a reader on v2, want still 1", got)
	}
	if _, err := ls.sys.SegmentImageOf(v2.SegName(), v2.Gen()); err != nil {
		t.Errorf("attached view's segment was reclaimed: %v", err)
	}
	if err := rd.VASDetach(rh); err != nil {
		t.Fatal(err)
	}

	if err := e.Close(ls.th); err != nil {
		t.Fatal(err)
	}
	if !v3.Invalid() {
		t.Error("Close left the current view valid")
	}
	if got := ls.obs.Snapshot().Cluster.Fork.Releases; got != 3 {
		t.Errorf("releases after Close = %d, want 3", got)
	}
	ls.close(t)
}
