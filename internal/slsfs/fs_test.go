package slsfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"aurora/internal/kernel"
	"aurora/internal/objstore"
	"aurora/internal/storage"
	"aurora/internal/vm"
)

func testFS(t *testing.T) *FS {
	if t != nil {
		t.Helper()
	}
	clock := storage.NewClock()
	store := objstore.Create(storage.NewMemDevice(storage.ParamsOptaneNVMe, clock), clock)
	return New(store, 1)
}

func TestCreateWriteRead(t *testing.T) {
	fs := testFS(t)
	f, err := fs.Create("/data.log")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("write-ahead entry")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q", got)
	}
	if f.Size() != int64(len(msg)) {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestDirectoryOperations(t *testing.T) {
	fs := testFS(t)
	if err := fs.Mkdir("/var"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/var/db"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/var"); err != ErrExist {
		t.Fatalf("duplicate mkdir err = %v", err)
	}
	if _, err := fs.Create("/var/db/data"); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("/var/db")
	if err != nil || len(names) != 1 || names[0] != "data" {
		t.Fatalf("readdir = %v, %v", names, err)
	}
	if _, err := fs.ReadDir("/var/db/data"); err != ErrNotDir {
		t.Fatalf("readdir on file err = %v", err)
	}
	if err := fs.Rmdir("/var"); err != ErrNotEmpty {
		t.Fatalf("rmdir non-empty err = %v", err)
	}
	if err := fs.Unlink("/var/db/data"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/var/db"); err != nil {
		t.Fatal(err)
	}
}

func TestPathValidation(t *testing.T) {
	fs := testFS(t)
	if _, err := fs.Open("relative/path"); err != ErrBadPath {
		t.Fatalf("relative path err = %v", err)
	}
	if _, err := fs.Open("/a/../b"); err != ErrBadPath {
		t.Fatalf("dotdot err = %v", err)
	}
	if _, err := fs.Open("/missing"); err != ErrNotExist {
		t.Fatalf("missing err = %v", err)
	}
}

func TestRename(t *testing.T) {
	fs := testFS(t)
	f, _ := fs.Create("/old")
	f.WriteAt([]byte("contents"), 0)
	if err := fs.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/old"); err != ErrNotExist {
		t.Fatal("old name still resolves")
	}
	g, err := fs.Open("/new")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	g.ReadAt(got, 0)
	if string(got) != "contents" {
		t.Fatalf("renamed contents = %q", got)
	}
}

func TestUnlinkedOpenFileSurvives(t *testing.T) {
	fs := testFS(t)
	f, _ := fs.Create("/tmpfile")
	f.WriteAt([]byte("anonymous data"), 0)
	if err := fs.Unlink("/tmpfile"); err != nil {
		t.Fatal(err)
	}
	// Name is gone but the open file still works.
	if _, err := fs.Open("/tmpfile"); err != ErrNotExist {
		t.Fatal("unlinked name still resolves")
	}
	got := make([]byte, 14)
	if _, err := f.ReadAt(got, 0); err != nil || string(got) != "anonymous data" {
		t.Fatalf("read after unlink = %q, %v", got, err)
	}
	// Inode persists in snapshots while the open ref exists.
	epoch, err := fs.Snapshot("with-orphan")
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := Load(fs.Store(), fs.Group(), epoch)
	if err != nil {
		t.Fatal(err)
	}
	orphan, err := fs2.OpenOrphan(f.Ino())
	if err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, 14)
	if _, err := orphan.ReadAt(got2, 0); err != nil || string(got2) != "anonymous data" {
		t.Fatalf("orphan read after restore = %q, %v", got2, err)
	}
	// Closing the last reference drops the inode for good.
	if err := f.CloseFile(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.OpenOrphan(f.Ino()); err != ErrNotExist {
		t.Fatal("inode survived last close with no links")
	}
}

func TestSnapshotLoadRoundTrip(t *testing.T) {
	fs := testFS(t)
	fs.Mkdir("/etc")
	f, _ := fs.Create("/etc/config")
	payload := make([]byte, 3*vm.PageSize+100)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	f.WriteAt(payload, 0)

	epoch, err := fs.Snapshot("v1")
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := Load(fs.Store(), fs.Group(), epoch)
	if err != nil {
		t.Fatal(err)
	}
	g, err := fs2.Open("/etc/config")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("snapshot contents diverge")
	}
	if size, mode, _ := fs2.Stat("/etc/config"); size != int64(len(payload)) || mode != ModeFile {
		t.Fatalf("stat = %d, %v", size, mode)
	}
}

func TestIncrementalSnapshotWritesOnlyDirty(t *testing.T) {
	fs := testFS(t)
	f, _ := fs.Create("/big")
	f.WriteAt(make([]byte, 64*vm.PageSize), 0)
	if _, err := fs.Snapshot(""); err != nil {
		t.Fatal(err)
	}
	st1 := fs.Store().Stats()

	// Dirty exactly one page.
	f.WriteAt([]byte{0xff}, 10*vm.PageSize)
	if _, err := fs.Snapshot(""); err != nil {
		t.Fatal(err)
	}
	st2 := fs.Store().Stats()
	if delta := st2.Blocks - st1.Blocks; delta != 1 {
		t.Fatalf("second snapshot wrote %d new blocks, want 1", delta)
	}
}

func TestSnapshotNamedLookup(t *testing.T) {
	fs := testFS(t)
	f, _ := fs.Create("/a")
	f.WriteAt([]byte("v1"), 0)
	fs.Snapshot("release-1")
	f.WriteAt([]byte("v2"), 0)
	fs.Snapshot("release-2")

	old, err := LoadNamed(fs.Store(), "release-1")
	if err != nil {
		t.Fatal(err)
	}
	g, _ := old.Open("/a")
	got := make([]byte, 2)
	g.ReadAt(got, 0)
	if string(got) != "v1" {
		t.Fatalf("release-1 view = %q — snapshots are not immutable", got)
	}
	cur, err := LoadLatest(fs.Store(), fs.Group())
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := cur.Open("/a")
	g2.ReadAt(got, 0)
	if string(got) != "v2" {
		t.Fatalf("latest view = %q", got)
	}
}

func TestCloneIsZeroCopyAndIsolated(t *testing.T) {
	fs := testFS(t)
	f, _ := fs.Create("/shared")
	base := make([]byte, 16*vm.PageSize)
	for i := range base {
		base[i] = byte(i)
	}
	f.WriteAt(base, 0)
	epoch, _ := fs.Snapshot("golden")
	written := fs.Store().Stats().BlocksFreed // 0; just anchor
	_ = written
	blocksBefore := fs.Store().Stats().Blocks

	clone, err := Clone(fs.Store(), fs.Group(), epoch, 77)
	if err != nil {
		t.Fatal(err)
	}
	// Clone reads the same data without copying blocks.
	g, _ := clone.Open("/shared")
	got := make([]byte, len(base))
	g.ReadAt(got, 0)
	if !bytes.Equal(got, base) {
		t.Fatal("clone contents differ")
	}
	if fs.Store().Stats().Blocks != blocksBefore {
		t.Fatal("clone copied data blocks")
	}

	// Clone writes are isolated from the source.
	g.WriteAt([]byte("clone-write"), 0)
	src, _ := fs.Open("/shared")
	srcGot := make([]byte, 11)
	src.ReadAt(srcGot, 0)
	if string(srcGot) == "clone-write" {
		t.Fatal("clone write leaked into source")
	}

	// Clone snapshot into its own group shares all clean blocks.
	if _, err := clone.Snapshot("clone-v1"); err != nil {
		t.Fatal(err)
	}
	after := fs.Store().Stats()
	// Only the one dirtied page should be new.
	if after.Blocks > blocksBefore+1 {
		t.Fatalf("clone snapshot created %d new blocks, want <= 1", after.Blocks-blocksBefore)
	}
}

func TestFSFileThroughKernelDescriptors(t *testing.T) {
	fs := testFS(t)
	k := kernel.New()
	p, _ := k.Spawn(0, "app")
	f, _ := fs.Create("/applog")

	fd, desc := p.FDs.Install(k, f, kernel.ORdWr)
	_ = desc
	if _, err := k.Write(p, fd, []byte("line1\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Write(p, fd, []byte("line2\n")); err != nil {
		t.Fatal(err)
	}
	// Offset advanced; rewind by reopening at a second descriptor.
	fd2, _ := p.FDs.Install(k, f, kernel.ORdOnly)
	buf := make([]byte, 12)
	n, err := k.Read(p, fd2, buf)
	if err != nil || string(buf[:n]) != "line1\nline2\n" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
	// EOF behaves as would-block for pollers.
	if _, err := k.Read(p, fd2, buf); err != kernel.ErrWouldBlock {
		t.Fatalf("eof err = %v", err)
	}
}

func TestAppendFlag(t *testing.T) {
	fs := testFS(t)
	k := kernel.New()
	p, _ := k.Spawn(0, "app")
	f, _ := fs.Create("/wal")
	fd, _ := p.FDs.Install(k, f, kernel.OWrOnly|kernel.OAppend)
	k.Write(p, fd, []byte("aaa"))
	k.Write(p, fd, []byte("bbb"))
	got := make([]byte, 6)
	f.ReadAt(got, 0)
	if string(got) != "aaabbb" {
		t.Fatalf("append result = %q", got)
	}
}

func TestTruncate(t *testing.T) {
	fs := testFS(t)
	f, _ := fs.Create("/t")
	f.WriteAt(make([]byte, 2*vm.PageSize), 0)
	f.Truncate(100)
	if f.Size() != 100 {
		t.Fatalf("size = %d", f.Size())
	}
	// Extended reads see zeros after truncate+regrow.
	f.Truncate(vm.PageSize * 3)
	got := make([]byte, 10)
	f.ReadAt(got, 2*vm.PageSize)
	for _, b := range got {
		if b != 0 {
			t.Fatal("regrown region not zero")
		}
	}
}

func TestSnapshotPersistsAcrossStoreReopen(t *testing.T) {
	clock := storage.NewClock()
	dev := storage.NewMemDevice(storage.ParamsOptaneNVMe, clock)
	store := objstore.Create(dev, clock)
	fs := New(store, 1)
	f, _ := fs.Create("/durable")
	f.WriteAt([]byte("survives restart"), 0)
	fs.Snapshot("final")
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}

	store2, err := objstore.Open(dev, clock)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := LoadNamed(store2, "final")
	if err != nil {
		t.Fatal(err)
	}
	g, err := fs2.Open("/durable")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	g.ReadAt(got, 0)
	if string(got) != "survives restart" {
		t.Fatalf("after restart = %q", got)
	}
}

// Property: a snapshot is a faithful point-in-time image under any
// sequence of writes before and after it.
func TestQuickSnapshotFidelity(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(before, after []op) bool {
		fs := testFS(nil)
		file, _ := fs.Create("/f")
		model := make([]byte, 1<<16+4096) // Off is a uint16, Data up to 4096 past it
		var hi int64
		for _, o := range before {
			if len(o.Data) == 0 {
				continue
			}
			if len(o.Data) > 4096 {
				o.Data = o.Data[:4096]
			}
			file.WriteAt(o.Data, int64(o.Off))
			copy(model[o.Off:], o.Data)
			if end := int64(o.Off) + int64(len(o.Data)); end > hi {
				hi = end
			}
		}
		epoch, err := fs.Snapshot("")
		if err != nil {
			return false
		}
		snapshotImage := append([]byte(nil), model[:hi]...)

		for _, o := range after {
			if len(o.Data) == 0 {
				continue
			}
			if len(o.Data) > 4096 {
				o.Data = o.Data[:4096]
			}
			file.WriteAt(o.Data, int64(o.Off))
		}
		view, err := Load(fs.Store(), fs.Group(), epoch)
		if err != nil {
			return false
		}
		vf, err := view.Open("/f")
		if err != nil {
			return false
		}
		got := make([]byte, len(snapshotImage))
		vf.ReadAt(got, 0)
		return bytes.Equal(got, snapshotImage)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
