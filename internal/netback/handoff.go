package netback

import (
	"encoding/binary"
	"fmt"
	"time"

	"aurora/internal/core"
)

// This file implements the in-band migration handover: the frame pair
// a live migration uses to push the new generation's fence to the
// target over the replication link itself, so the announcement rides
// the same faulty wire as the data stream (and is dropped, duplicated,
// reordered, and partitioned by the same injectors). The core.Migrator
// discovers the capability through core.HandoffAnnouncer.

var _ core.HandoffAnnouncer = (*ReplicaBackend)(nil)

// Handoff announces a migration handover for group at gen (contiguous
// floor floor) and waits for the receiver's acknowledgment that the
// fence is adopted. Only a handoff ack for this group at gen or above
// completes the announcement; every other reply is stale (await). Any
// transport failure drops the connection and returns an error wrapping
// ErrDisconnected; the caller heals the link and retries (AdoptFence on
// the receiver is raise-only, so a duplicated handoff is idempotent).
func (rb *ReplicaBackend) Handoff(group, gen, floor uint64) error {
	rc := rb.core
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.conn == nil {
		return fmt.Errorf("%w: handoff of group %d not sent", ErrDisconnected, group)
	}
	var p [24]byte
	binary.LittleEndian.PutUint64(p[:8], group)
	binary.LittleEndian.PutUint64(p[8:16], gen)
	binary.LittleEndian.PutUint64(p[16:], floor)
	if err := writeFrame(rc.conn, frameHandoff, p[:]); err != nil {
		rc.lost()
		return fmt.Errorf("%w: sending handoff for group %d: %w", ErrDisconnected, group, err)
	}
	if err := rc.await(rc.conn, "handoff ack", func(typ byte, ack []byte) (bool, error) {
		return typ == frameHandoffAck && binary.LittleEndian.Uint64(ack[:8]) == group &&
			binary.LittleEndian.Uint64(ack[8:]) >= gen, nil
	}); err != nil {
		return err
	}
	rc.sent += int64(len(p)) + frameHdrSize
	cost := rc.nic.Latency + rc.extraLat +
		time.Duration((int64(len(p))+frameHdrSize)*int64(time.Second)/rc.nic.WriteBW)
	if rb.clock != nil {
		rb.clock.Advance(cost)
	}
	return nil
}
