package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"aurora/internal/core"
	"aurora/internal/objstore"
	"aurora/internal/storage"
)

// runScript executes semicolon-separated commands in one session and
// returns the combined output.
func runScript(t *testing.T, script string) string {
	t.Helper()
	out, _ := runSession(t, script, nil, "")
	return out
}

// runSession is runScript plus the session's exit code. The optional
// mid hook runs between setup and script, letting a test reach into
// the machine (e.g. corrupt a store block) before the second phase.
func runSession(t *testing.T, setup string, mid func(*session), script string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	out := bufio.NewWriter(&buf)
	s := newSession(out)
	run := func(lines string) {
		for _, line := range strings.Split(lines, ";") {
			if !s.exec(strings.TrimSpace(line)) {
				return
			}
		}
	}
	run(setup)
	if mid != nil {
		mid(s)
	}
	run(script)
	out.Flush()
	return buf.String(), s.code
}

func TestCLIWorkflow(t *testing.T) {
	got := runScript(t,
		"boot counter; run 20; persist 1 app; attach app nvme; checkpoint app first; ps")
	for _, want := range []string{
		"booted counter, pid 1",
		"persistence group 1 (app)",
		"attached store:",
		"ckpt[full]",
		"GROUP",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestCLIRestore(t *testing.T) {
	got := runScript(t,
		"boot counter; persist 1 app; attach app memory; checkpoint app; run 50; restore app")
	if !strings.Contains(got, "restored as group 2") {
		t.Fatalf("restore output:\n%s", got)
	}
}

func TestCLISendRecv(t *testing.T) {
	file := filepath.Join(t.TempDir(), "app.aur")
	got := runScript(t,
		"boot counter; run 7; persist 1 app; attach app nvme; checkpoint app; send app "+file)
	if !strings.Contains(got, "sent group 1") {
		t.Fatalf("send output:\n%s", got)
	}
	// A brand new session receives and resumes the application.
	got2 := runScript(t, "recv "+file+"; ps; run 10")
	if !strings.Contains(got2, "received as group 1") {
		t.Fatalf("recv output:\n%s", got2)
	}
	if !strings.Contains(got2, "counter") {
		t.Fatalf("received process missing from ps:\n%s", got2)
	}
}

// TestCLISendAfterLazyRestore: a lazily restored group's image keeps its
// pages in the store, and `send` reads them there: right after `restore`,
// with no checkpoint in between, the file it writes resumes the counter
// where the checkpoint left it in a new session; after the restored
// group's first checkpoint, the file round-trips too.
func TestCLISendAfterLazyRestore(t *testing.T) {
	file := filepath.Join(t.TempDir(), "app.aur")
	got := runScript(t,
		"boot counter; run 7; persist 1 app; attach app nvme; checkpoint app; sync app; restore app; send 2 "+file)
	if !strings.Contains(got, "sent group 2") || strings.Contains(got, "error:") {
		t.Fatalf("send after a lazy restore:\n%s", got)
	}
	var counter []uint64
	got, _ = runSession(t, "recv "+file, func(s *session) {
		for _, p := range s.k.Processes() {
			var b [8]byte
			if err := p.ReadMem(p.HeapBase(), b[:]); err != nil {
				t.Fatal(err)
			}
			counter = append(counter, uint64(b[0])|uint64(b[1])<<8|uint64(b[2])<<16)
		}
	}, "")
	if !strings.Contains(got, "received as group 1") || len(counter) != 1 || counter[0] != 7 {
		t.Fatalf("recv of the file sent after a lazy restore: counters %v, want [7]\n%s", counter, got)
	}
	// The restored group's first checkpoint holds the pages it inherits
	// by name until its flush reads them; `send` after it sends them too.
	got = runScript(t,
		"boot counter; run 7; persist 1 app; attach app nvme; checkpoint app; sync app; restore app; checkpoint 2; send 2 "+file+"; recv "+file)
	if !strings.Contains(got, "sent group 2") || !strings.Contains(got, "received as group 3") || strings.Contains(got, "error:") {
		t.Fatalf("send after the restored group's checkpoint:\n%s", got)
	}
}

func TestCLIDetach(t *testing.T) {
	got := runScript(t,
		"boot counter; persist 1 app; attach app nvme; detach app nvme; checkpoint app")
	if !strings.Contains(got, "detached") {
		t.Fatalf("detach output:\n%s", got)
	}
}

func TestCLISyncAndQueueColumn(t *testing.T) {
	got := runScript(t,
		"boot counter; persist 1 app; attach app nvme; checkpoint app; sync app; ps")
	if !strings.Contains(got, "durable through epoch 1") {
		t.Fatalf("sync output:\n%s", got)
	}
	if !strings.Contains(got, "QUEUE") {
		t.Fatalf("ps missing QUEUE column:\n%s", got)
	}
}

func TestCLIErrors(t *testing.T) {
	got := runScript(t, "persist 99 x; attach nope nvme; checkpoint nope; restore nope; frobnicate")
	if strings.Count(got, "error:") < 3 {
		t.Fatalf("expected errors for bad arguments:\n%s", got)
	}
	if !strings.Contains(got, "unknown command") {
		t.Fatalf("unknown command not reported:\n%s", got)
	}
}

func TestCLIUsageLines(t *testing.T) {
	got := runScript(t, "persist; attach; detach; checkpoint; restore; send; recv; stat; help")
	if strings.Count(got, "usage:") < 6 {
		t.Fatalf("usage hints missing:\n%s", got)
	}
	if !strings.Contains(got, "single level store") {
		t.Fatalf("help text missing:\n%s", got)
	}
}

func TestCLIRedisBoot(t *testing.T) {
	got := runScript(t, "boot redis; stat 1")
	if !strings.Contains(got, "booted mini-redis") || !strings.Contains(got, "heap") {
		t.Fatalf("redis boot output:\n%s", got)
	}
}

func TestCLIScrub(t *testing.T) {
	got := runScript(t,
		"boot counter; run 5; persist 1 app; attach app nvme; attach app ssd; checkpoint app; sync app; scrub nvme ssd")
	if !strings.Contains(got, "scrub nvme:") || !strings.Contains(got, "0 corrupt") {
		t.Fatalf("scrub output:\n%s", got)
	}
	if !strings.Contains(got, "0 lost") {
		t.Fatalf("clean store reported losses:\n%s", got)
	}
}

func TestCLIScrubErrors(t *testing.T) {
	got := runScript(t, "scrub; scrub nope; scrub memory")
	if !strings.Contains(got, "usage: scrub") {
		t.Fatalf("scrub usage missing:\n%s", got)
	}
	if !strings.Contains(got, `unknown backend "nope"`) {
		t.Fatalf("bad backend not reported:\n%s", got)
	}
	if !strings.Contains(got, "not store-backed") {
		t.Fatalf("memory backend accepted for scrub:\n%s", got)
	}
}

// corruptEpoch overwrites one vm data block written by exactly (group,
// epoch) on a store backend's device, so restore validation quarantines
// that epoch while older epochs stay clean.
func corruptEpoch(t *testing.T, s *session, backend string, group, epoch uint64) {
	t.Helper()
	sb, err := s.storeArg(backend)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sb.Store().Manifest(group, epoch)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range m.Records {
		if key.OID&(uint64(1)<<63) == 0 || key.Epoch != epoch {
			continue
		}
		rec, err := sb.Store().GetRecord(key.Group, key.OID, key.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rec.Pages {
			garbage := bytes.Repeat([]byte{0xAA}, objstore.BlockSize)
			if _, err := sb.Store().Device().WriteAt(garbage, p.Ref.Off); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("epoch %d wrote no data block to corrupt", epoch)
}

func TestCLIEpochsListing(t *testing.T) {
	got := runScript(t,
		"boot counter; persist 1 app; attach app nvme; run 10; checkpoint app; run 10; checkpoint app; sync app; epochs app; epochs app nvme; epochs; epochs app memory")
	for _, want := range []string{"EPOCH", "BACKEND", "STATUS", "usage: epochs", "not store-backed"} {
		if !strings.Contains(got, want) {
			t.Fatalf("epochs output missing %q:\n%s", want, got)
		}
	}
	if strings.Count(got, "ok") < 4 { // 2 epochs × 2 listings
		t.Fatalf("epochs listing missing clean rows:\n%s", got)
	}
}

// TestCLIRestoreQuarantineFallback: the newest epoch is corrupted on
// media; restore falls back one epoch, exits 3, and both ps and epochs
// show the poisoned epoch.
func TestCLIRestoreQuarantineFallback(t *testing.T) {
	got, code := runSession(t,
		"boot counter; persist 1 app; attach app nvme; run 10; checkpoint app; run 10; checkpoint app; sync app",
		func(s *session) { corruptEpoch(t, s, "nvme", 1, 2) },
		"restore app; ps; epochs app")
	if code != 3 {
		t.Fatalf("exit code = %d, want 3 (quarantined fallback):\n%s", code, got)
	}
	for _, want := range []string{
		"warning: epoch 2 quarantined, fell back to epoch 1",
		"restored as group 2",
		"quarantined:",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestCLIRestoreCorruptImage: with every durable epoch corrupted the
// restore has nowhere to fall back to and exits 4.
func TestCLIRestoreCorruptImage(t *testing.T) {
	got, code := runSession(t,
		"boot counter; persist 1 app; attach app nvme; run 10; checkpoint app; sync app",
		func(s *session) { corruptEpoch(t, s, "nvme", 1, 1) },
		"restore app")
	if code != 4 {
		t.Fatalf("exit code = %d, want 4 (corrupt image):\n%s", code, got)
	}
	if !strings.Contains(got, "error:") {
		t.Fatalf("failed restore did not report an error:\n%s", got)
	}
}

// TestRestoreExitCodes pins the error-to-exit-code mapping itself,
// including the backend-down path the scripted session cannot reach
// (its devices have no fault injection).
func TestRestoreExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{fmt.Errorf("restore: %w", core.ErrEpochQuarantined), 4},
		{fmt.Errorf("restore: %w", core.ErrBackendDown), 5},
		{fmt.Errorf("restore: %w", storage.ErrDeviceDown), 5},
		{fmt.Errorf("some other failure"), 1},
	}
	for _, c := range cases {
		if got := restoreExitCode(c.err); got != c.want {
			t.Errorf("restoreExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestPromoteExitCodes pins the promotion error-to-exit-code mapping,
// including the fenced path (7) a scripted session cannot reach
// without a network replica promoting over it.
func TestPromoteExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{fmt.Errorf("promote: %w", core.ErrPrimaryHealthy), 6},
		{fmt.Errorf("promote: %w", core.ErrStaleGeneration), 7},
		{fmt.Errorf("some other failure"), 1},
	}
	for _, c := range cases {
		if got := promoteExitCode(c.err); got != c.want {
			t.Errorf("promoteExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestCLIPromoteRefusedHealthy: promoting over a live primary is how
// split-brain starts; the CLI refuses with exit code 6.
func TestCLIPromoteRefusedHealthy(t *testing.T) {
	got, code := runSession(t,
		"boot counter; run 5; persist 1 app; attach app nvme; attach app ssd; checkpoint app; sync app",
		nil,
		"promote app ssd")
	if code != 6 {
		t.Fatalf("exit code = %d, want 6 (primary healthy):\n%s", code, got)
	}
	if !strings.Contains(got, "still healthy") {
		t.Fatalf("refusal not reported:\n%s", got)
	}
}

// TestCLIPromote: the primary store dies (every write injected to
// fail), the group's flushes keep landing on the secondary, and
// `promote` moves the primary role there — minting generation 2,
// persisting the fence, and exiting 0. ps then shows the GEN column.
func TestCLIPromote(t *testing.T) {
	got, code := runSession(t,
		"boot counter; run 5; persist 1 app",
		func(s *session) {
			s.o.DownAfter = 1
			fd := storage.NewFaultDevice(storage.NewMemDevice(storage.ParamsOptaneNVMe, s.clock), s.clock, storage.FaultConfig{Seed: 9})
			st := objstore.Create(fd, s.clock)
			s.backends["flaky"] = core.NewStoreBackend(st, s.k.Mem, s.clock)
			fd.FailOps(storage.FaultWrite, fd.OpCount()+1, 1<<62)
		},
		"attach app flaky; attach app ssd; checkpoint app; sync app; promote app ssd; ps")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (promoted):\n%s", code, got)
	}
	if !strings.Contains(got, "to primary of group 1: generation 2") {
		t.Fatalf("promotion not reported:\n%s", got)
	}
	if !strings.Contains(got, "GEN") {
		t.Fatalf("ps missing GEN column:\n%s", got)
	}
}

// TestCLIEpochsLinkCounters: epochs renders per-backend link history
// (zero partitions/catch-up for in-machine backends, but the rows are
// always present for scripts to scrape).
func TestCLIEpochsLinkCounters(t *testing.T) {
	got := runScript(t,
		"boot counter; persist 1 app; attach app nvme; run 10; checkpoint app; sync app; epochs app")
	if !strings.Contains(got, "partitions=0 catchup=0") {
		t.Fatalf("epochs missing link counters:\n%s", got)
	}
}

// TestCLIDF: df renders one row per store backend. The stock session
// devices are unbounded, so capacity and USE% render as placeholders,
// pressure is none, and the exit code stays 0.
func TestCLIDF(t *testing.T) {
	got, code := runSession(t,
		"boot counter; persist 1 app; attach app nvme; checkpoint app; sync app",
		nil,
		"df")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (no space pressure):\n%s", code, got)
	}
	for _, want := range []string{"BACKEND", "USED", "CAPACITY", "PRESSURE", "nvme", "ssd", "hdd", "none"} {
		if !strings.Contains(got, want) {
			t.Fatalf("df output missing %q:\n%s", want, got)
		}
	}
}

// TestCLIFleet: the fleet command reports the shard runtime once work
// has flowed through it, and the idle message before that.
func TestCLIFleet(t *testing.T) {
	got := runScript(t, "fleet")
	if !strings.Contains(got, "fleet runtime idle") {
		t.Fatalf("idle fleet output = %q", got)
	}
	got = runScript(t,
		"boot counter; persist 1 app; attach app nvme; checkpoint app; sync app; fleet")
	for _, want := range []string{"shards=", "workers/shard=", "dispatches=1", "shard 0:", "mem budget=", "nvme: dedup-hits="} {
		if !strings.Contains(got, want) {
			t.Fatalf("fleet output missing %q:\n%s", want, got)
		}
	}
}

// TestCLIFleetLinePages: the per-store line of `fleet` counts the line
// entries and their patch bytes. The counter writes 8 bytes a step, so
// its second checkpoint stores the counter page as one line entry: a
// one-line patch of 112 bytes where a block would be 4,096.
func TestCLIFleetLinePages(t *testing.T) {
	got := runScript(t, "boot counter; persist 1 app; attach app nvme; checkpoint app; sync app; fleet")
	if !strings.Contains(got, "line-pages=0 line-bytes=0") {
		t.Fatalf("a full checkpoint stored line entries:\n%s", got)
	}
	got = runScript(t, "boot counter; run 4; persist 1 app; attach app nvme; checkpoint app; sync app; run 4; checkpoint app; sync app; fleet")
	if !strings.Contains(got, "nvme: ") || !strings.Contains(got, " line-pages=1 line-bytes=112 ") {
		t.Fatalf("fleet output after an 8-byte write:\n%s", got)
	}
}

// TestCLIGC: a retention scan on an unbounded device is a no-op (no
// watermark can be crossed), and the non-store backends are rejected.
func TestCLIGC(t *testing.T) {
	got := runScript(t,
		"boot counter; persist 1 app; attach app nvme; checkpoint app; sync app; gc nvme; gc memory; gc nope; gc")
	for _, want := range []string{
		"gc nvme: freed 0 bytes",
		"pressure none",
		"not store-backed",
		`unknown backend "nope"`,
		"usage: gc",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("gc output missing %q:\n%s", want, got)
		}
	}
}

// TestCLISpacePressure drives the full space story through the CLI: a
// bounded backend with watermarks set so any resident byte counts as
// emergency pressure. Retention reclaims old epochs as checkpoints
// retire, durable still advances, ps grows a USE% figure, gc reports
// the reclamation, and df exits 8.
func TestCLISpacePressure(t *testing.T) {
	got, code := runSession(t,
		"boot counter; run 5; persist 1 app",
		func(s *session) {
			p := storage.ParamsOptaneNVMe
			p.Capacity = 8 << 20
			st := objstore.Create(storage.NewMemDevice(p, s.clock), s.clock)
			sb := core.NewStoreBackend(st, s.k.Mem, s.clock)
			sb.SetReclaimer(core.NewReclaimer(s.o, sb, core.RetentionPolicy{},
				core.Watermarks{Low: 1e-9, High: 2e-9, Emergency: 3e-9}))
			s.backends["tiny"] = sb
			// Every resident byte is emergency pressure here, so whether
			// barriers 2 and 3 are shed would depend on whether the
			// previous epoch's background flush already reached the
			// device. Admit every barrier: the three epochs are
			// deterministic and the pressure story is told by gc and df.
			s.o.ShedAdmitEvery = 1
		},
		"attach app tiny; checkpoint app; run 5; checkpoint app; run 5; checkpoint app; sync app; ps; gc tiny; df")
	if code != 8 {
		t.Fatalf("exit code = %d, want 8 (emergency watermark):\n%s", code, got)
	}
	for _, want := range []string{
		"durable through epoch 3", // pressure shed frequency, not durability
		"USE%",
		"epochs reclaimed total",
		"emergency",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// The group's USE% column must render a real percentage for the
	// bounded backend, not the unbounded placeholder.
	psLine := ""
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "app") && strings.Contains(line, "%") {
			psLine = line
		}
	}
	if psLine == "" {
		t.Fatalf("ps USE%% column missing a percentage:\n%s", got)
	}
}

func TestCLIHealthColumn(t *testing.T) {
	got := runScript(t,
		"boot counter; persist 1 app; attach app nvme; checkpoint app; sync app; ps")
	if !strings.Contains(got, "HEALTH") {
		t.Fatalf("ps missing HEALTH column:\n%s", got)
	}
	if !strings.Contains(got, "ok") {
		t.Fatalf("healthy backend not shown as ok:\n%s", got)
	}
	// A group with no backends renders a placeholder.
	got2 := runScript(t, "boot counter; persist 1 app; ps")
	if !strings.Contains(got2, "-") {
		t.Fatalf("backendless group health:\n%s", got2)
	}
}

func TestCLIQuorumAndReplicas(t *testing.T) {
	got := runScript(t,
		"boot counter; run 8; persist 1 app; attach app nvme; "+
			"replica app r0; replica app r1; replica app r2; quorum app 2; "+
			"run 4; checkpoint app; sync app; run 4; checkpoint app; sync app; ps; replicas app")
	for _, want := range []string{
		"replica r0 linked to group 1 (1 in set, 0 epochs backfilled)",
		"replica r2 linked to group 1 (3 in set, 0 epochs backfilled)",
		"group 1 write quorum 2 of 4 non-ephemeral backends",
		"QUORUM",
		"4/2:4", // all four non-ephemeral backends ack-complete, W=2
		"REPLICA",
		"r1             healthy    2",
		"HASHED   REFS     BLOCKS   LINES",
		// r*: contiguous through 2; the full epoch's page hashed, epoch 2's
		// counter byte sent as its line and rebuilt (hashed too), no ref,
		// two blocks.
		"2       2        0        2        1/1\n",
		"quorum floor 2 (W=2 of 3 links)",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}

	// Clearing the quorum restores the legacy "-" column.
	got = runScript(t,
		"boot counter; run 8; persist 1 app; attach app nvme; quorum app 0; ps; replicas app")
	if !strings.Contains(got, "group 1 back on all-backends durability") {
		t.Fatalf("quorum 0 not acknowledged:\n%s", got)
	}
	if !strings.Contains(got, "group 1 has no replica links") {
		t.Fatalf("replicas without links not reported:\n%s", got)
	}

	got = runScript(t, "replica; quorum; replicas")
	for _, want := range []string{"usage: replica", "usage: quorum", "usage: replicas"} {
		if !strings.Contains(got, want) {
			t.Fatalf("usage line missing %q:\n%s", want, got)
		}
	}
}

// TestMigrateExitCodes pins the migration error-to-exit-code mapping:
// 7 for a fenced (stale-generation) source, 9 for an aborted
// migration — scripts distinguish "retry later" from "you lost the
// race".
func TestMigrateExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{fmt.Errorf("migrate: %w", core.ErrStaleGeneration), 7},
		{fmt.Errorf("migrate: %w", core.ErrMigrationAborted), 9},
		{&core.MigrationError{Phase: core.PhasePreCopy, Err: fmt.Errorf("link died")}, 9},
		{fmt.Errorf("some other failure"), 1},
	}
	for _, c := range cases {
		if got := migrateExitCode(c.err); got != c.want {
			t.Errorf("migrateExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestCLIMigrate: live-migrate a running group over a loopback
// replica link onto the ssd store. The report line carries the
// blackout and source-stop windows, ps shows the migrated group at
// generation 2, and the source group is fully torn down — a
// checkpoint against it no longer resolves.
func TestCLIMigrate(t *testing.T) {
	got, code := runSession(t,
		"boot counter; persist 1 app; attach app nvme; run 4; checkpoint app; sync app; replica app r1",
		nil,
		"migrate app r1 ssd; ps; checkpoint 1")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0:\n%s", code, got)
	}
	for _, want := range []string{
		"migrated group 1 -> group 2 over r1: generation 2",
		"epochs backfilled, blackout ",
		"source stop ",
		"app-migrated",
		"core: no such persistence group", // the source is torn down
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestCLIStandbyTakeover: two standby rounds keep the target warm
// while the source keeps running, then takeover promotes it with a
// reported TTR. The fenced source stays listed but can no longer
// advance.
func TestCLIStandbyTakeover(t *testing.T) {
	got, code := runSession(t,
		"boot counter; persist 1 app; attach app nvme; run 4; checkpoint app; sync app; replica app r1",
		nil,
		"standby app r1 ssd; run 2; checkpoint app; standby app r1 ssd; takeover app; ps")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0:\n%s", code, got)
	}
	for _, want := range []string{
		"standby for group 1 warm: 1 rounds shipped",
		"standby for group 1 warm: 2 rounds shipped",
		"standby promoted: group 1 -> group 2, generation 2",
		"(ttr ",
		"app-migrated",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestCLIMigrateErrors: usage lines for the three verbs, plus
// takeover without a warm standby.
func TestCLIMigrateErrors(t *testing.T) {
	got := runScript(t, "migrate; standby; takeover")
	for _, want := range []string{
		"usage: migrate <group> <replica> <store-backend>",
		"usage: standby <group> <replica> <store-backend>",
		"usage: takeover <group>",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("usage line missing %q:\n%s", want, got)
		}
	}
	got = runScript(t,
		"boot counter; persist 1 app; attach app nvme; run 4; checkpoint app; sync app; takeover app")
	if !strings.Contains(got, "has no warm standby") {
		t.Fatalf("bare takeover not refused:\n%s", got)
	}
}

// TestCLIStores: placements spread across the fleet under
// anti-affinity (a replica never shares the primary's rack), the
// stores table reports domain/state/residency, and ps gains STORE and
// DOMAIN columns — "-" for single-machine groups, the primary's home
// for placed ones.
func TestCLIStores(t *testing.T) {
	got := runScript(t,
		"boot counter; persist 1 app; attach app nvme; "+
			"place app1; place app2; place app3; stores; ps")
	for _, want := range []string{
		"placed app1: lineage 4294967297 on store0 (rack0), replicas store1(rack1)",
		"placed app2: lineage 8589934593 on store1 (rack1),",
		"NAME     DOMAIN   STATE",
		"store3   rack1    active",
		"STORE",
		"DOMAIN",
		"app            -        -", // single-machine group: no fleet home
		"app1           store0   rack0",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestCLIDrain: a drain live-migrates residents off, fences the
// store, and the fenced store refuses a second drain with exit code
// 11 (no feasible placement).
func TestCLIDrain(t *testing.T) {
	got, code := runSession(t,
		"place app1; place app2; place app3; place app4",
		nil,
		"drain store0; stores")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0:\n%s", code, got)
	}
	for _, want := range []string{
		"store store0 drained and fenced",
		"store0   rack0    fenced",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(got, "-> store") {
		t.Fatalf("drain reported no migrations:\n%s", got)
	}

	got, code = runSession(t, "place app1; drain store1", nil, "drain store1")
	if code != 11 {
		t.Fatalf("re-draining a fenced store: exit code = %d, want 11:\n%s", code, got)
	}
	if !strings.Contains(got, "not drainable") {
		t.Fatalf("fenced store accepted a drain:\n%s", got)
	}
}

// TestCLIBalance: a fleet of unbounded stores is never pressured —
// one pass reports balance and moves nothing.
func TestCLIBalance(t *testing.T) {
	got, code := runSession(t, "place app1; place app2", nil, "balance; stores")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0:\n%s", code, got)
	}
	if !strings.Contains(got, "fleet balanced: no store above the high watermark") {
		t.Fatalf("balance pass not reported:\n%s", got)
	}
	got = runScript(t, "place; drain")
	for _, want := range []string{"usage: place <name>", "usage: drain <store>"} {
		if !strings.Contains(got, want) {
			t.Fatalf("usage line missing %q:\n%s", want, got)
		}
	}
}

// TestCLIAutoscale: manual scale-out admits a warm spare and seeds it,
// a second scale verb mid-flight refuses with exit code 12, ticks
// finish the action, and ps grows TARGET/UTIL columns for fleet rows.
func TestCLIAutoscale(t *testing.T) {
	got, code := runSession(t,
		"place app1; place app2; place app3; autoscale; autoscale out", nil,
		"autoscale tick 8; autoscale status; ps; stores")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0:\n%s", code, got)
	}
	for _, want := range []string{
		"phase=idle tick=0 active=4 target=4 pool=2",
		"scale-out: admitted store4 from the warm pool",
		"scale-out-done store4",
		"TARGET", "UTIL", "/4",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}

	// A second scale verb while the first is still seeding: exit 12.
	got, code = runSession(t, "place app1; autoscale out", nil, "autoscale in")
	if code != 12 {
		t.Fatalf("racing scale verbs: exit code = %d, want 12:\n%s", code, got)
	}
	if !strings.Contains(got, "already in progress") {
		t.Fatalf("in-flight refusal not reported:\n%s", got)
	}

	// Scale-in below the floor: the fleet refuses with exit 11 once at
	// min stores (drive two full drains down to the 2-store minimum).
	got, code = runSession(t,
		"autoscale in; autoscale tick 12; autoscale in; autoscale tick 12", nil,
		"autoscale in")
	if code != 11 {
		t.Fatalf("scale-in at min stores: exit code = %d, want 11:\n%s", code, got)
	}
}

// TestCLISignals: the sample window is empty before any tick, and
// after ticks it carries fleet and per-store utilization rows.
func TestCLISignals(t *testing.T) {
	got := runScript(t, "signals")
	if !strings.Contains(got, "no samples yet") {
		t.Fatalf("empty window not reported:\n%s", got)
	}
	got, code := runSession(t, "place app1; place app2; autoscale tick 3", nil, "signals")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0:\n%s", code, got)
	}
	for _, want := range []string{"TICK", "ACTIVE", "MINUTIL", "BACKLOG", "STORE", "PRIMARIES", "store0"} {
		if !strings.Contains(got, want) {
			t.Fatalf("signals output missing %q:\n%s", want, got)
		}
	}
}
