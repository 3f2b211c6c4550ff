package objstore

import (
	"strings"
	"sync"
	"testing"
)

// TestAuditToleratesInFlightPuts: a put takes its block references long
// before it registers its record, and the reclaimer audits from another
// lane. The audit must count those references through the in-flight
// ledger — no false "refcount 1, 0 references reachable" — and stay an
// equality: a reference leaked outside any put is still reported.
func TestAuditToleratesInFlightPuts(t *testing.T) {
	s := testStore(t)
	const group, oid = 1, 1
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for epoch := uint64(1); epoch <= 400; epoch++ {
			pages := make(map[int64][]byte, 16)
			for pg := int64(0); pg < 16; pg++ {
				// Half the contents recur (dedup hits on live blocks),
				// half are new each epoch (fresh blocks, refcount 1).
				fill := byte(pg)
				if pg%2 == 0 {
					fill = byte(epoch)
				}
				pages[pg] = page(fill)
			}
			if _, err := s.PutRecord(group, oid, epoch, 1, epoch == 1, nil, pages, nil); err != nil {
				t.Errorf("put epoch %d: %v", epoch, err)
				return
			}
			m := &Manifest{Group: group, Epoch: epoch, Records: []RecordKey{{group, oid, epoch}}}
			if epoch > 1 {
				m.Prev = epoch - 1
			}
			s.PutManifest(m)
			if err := s.TrimHistory(group, 3, nil); err != nil {
				t.Errorf("trim at epoch %d: %v", epoch, err)
				return
			}
		}
	}()
	for audits, running := 0, true; running; audits++ {
		select {
		case <-done:
			running = false
		default:
		}
		if err := s.AuditReachability(); err != nil {
			t.Errorf("audit %d raced a put: %v", audits, err)
			break
		}
	}
	wg.Wait()
	if err := s.AuditReachability(); err != nil {
		t.Fatalf("audit at rest: %v", err)
	}
	s.mu.Lock()
	if n := len(s.inflight); n != 0 {
		t.Errorf("in-flight ledger holds %d blocks with no put running", n)
	}
	for _, be := range s.blocks {
		be.refs++ // a reference nobody accounts for
		break
	}
	s.mu.Unlock()
	if err := s.AuditReachability(); err == nil || !strings.Contains(err.Error(), "refcount") {
		t.Fatalf("audit of a leaked reference = %v, want a refcount mismatch", err)
	}
}

// TestFailedPutLeavesLedgerEmpty: an unwound put gives back every
// reference it held, in the block index and in the ledger alike.
func TestFailedPutLeavesLedgerEmpty(t *testing.T) {
	s := testStore(t)
	if _, err := s.PutRecord(1, 1, 1, 1, true, nil, map[int64][]byte{0: page(1), 1: page(2)}, nil); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.GetRecord(1, 1, 1)
	refs := map[int64]BlockRef{0: refOf(t, rec, 0), 1: refOf(t, rec, 1), 2: {Off: 1 << 40, Hash: Hash{0xEE}}}
	if _, err := s.PutRecordMixed(1, 1, 2, 1, false, nil, nil, refs, nil); err == nil {
		t.Fatal("put with a dangling reference succeeded")
	}
	if err := s.AuditReachability(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.inflight); n != 0 {
		t.Fatalf("in-flight ledger holds %d blocks after the unwind", n)
	}
}
