package main

import (
	"encoding/binary"
	"fmt"

	"falcon/internal/layout"
	"falcon/internal/server"
)

// YCSB rows are 1 KiB: the key, a stamp naming the write that produced the
// image (0 for the loaded image), and filler derived from both. A row is
// untorn when its filler matches its header; any line copied from another
// image breaks that match.

const rowBytes = 1024

func rowSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "k", Kind: layout.Uint64},
		layout.Column{Name: "stamp", Kind: layout.Uint64},
		layout.Column{Name: "fill", Kind: layout.Bytes, Size: rowBytes - 16},
	)
}

// fillRow writes the row image of (key, stamp) into buf.
func fillRow(buf []byte, key, stamp uint64) {
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint64(buf[8:], stamp)
	base := mix(key ^ mix(stamp))
	for off := 16; off+8 <= len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], base^uint64(off)*0x9E3779B97F4A7C15)
	}
}

// checkRow verifies that row is an untorn image of key and returns its
// stamp.
func checkRow(key uint64, row []byte) (uint64, error) {
	if got := binary.LittleEndian.Uint64(row[0:]); got != key {
		return 0, fmt.Errorf("row %d: holds key %d", key, got)
	}
	stamp := binary.LittleEndian.Uint64(row[8:])
	base := mix(key ^ mix(stamp))
	for off := 16; off+8 <= len(row); off += 8 {
		if binary.LittleEndian.Uint64(row[off:]) != base^uint64(off)*0x9E3779B97F4A7C15 {
			return stamp, fmt.Errorf("row %d: torn image (stamp %#x, byte %d differs)", key, stamp, off)
		}
	}
	return stamp, nil
}

// ycsbModel is what the workers saw acknowledged: lastAck[w][key] is the
// stamp of worker w's last acknowledged update to key (0 for none). Each
// worker writes only its own row of the table.
type ycsbModel struct {
	lastAck [][]uint64
}

func newYCSBModel(workers int, rows uint64) *ycsbModel {
	m := &ycsbModel{lastAck: make([][]uint64, workers)}
	for w := range m.lastAck {
		m.lastAck[w] = make([]uint64, rows)
	}
	return m
}

// checkFinal checks a recovered row: untorn, and holding either the last
// value some worker saw acknowledged for its key or, if no update of the key
// was acknowledged, the loaded image.
func (m *ycsbModel) checkFinal(key uint64, row []byte) error {
	stamp, err := checkRow(key, row)
	if err != nil {
		return err
	}
	acked := false
	for _, acks := range m.lastAck {
		if a := acks[key]; a != 0 {
			acked = true
			if a == stamp {
				return nil
			}
		}
	}
	if !acked && stamp == 0 {
		return nil
	}
	return fmt.Errorf("row %d: holds stamp %#x, not the loaded image or a last acknowledged update", key, stamp)
}

// serveModel is what one serve-kv client saw acknowledged.
type serveModel struct {
	ackedDelta int64 // sum of deltas of acknowledged fresh adds
	lastDigest string
	lastIdem   uint64
}

// checkReply checks one 200 response against the request that produced it
// and records acknowledged adds.
func (m *serveModel) checkReply(op serveOp, resp *server.TxnResponse) error {
	if resp.Outcome != "ok" {
		return fmt.Errorf("outcome %q: %s", resp.Outcome, resp.Error)
	}
	switch op.kind {
	case opResend:
		if op.idem != m.lastIdem {
			return fmt.Errorf("re-send of key %d, but the last acknowledged add was %d", op.idem, m.lastIdem)
		}
		if !resp.Replayed || resp.Digest != m.lastDigest {
			return fmt.Errorf("re-send of key %d: replayed=%v digest %s, want replayed=true digest %s",
				op.idem, resp.Replayed, resp.Digest, m.lastDigest)
		}
		return nil
	case opAdd:
		if resp.Replayed {
			return fmt.Errorf("fresh add %d answered as a replay", op.idem)
		}
		if len(resp.Results) != 1 || !resp.Results[0].Found || resp.Results[0].Val < int64(op.key)+op.delta {
			return fmt.Errorf("add to key %d: results %+v", op.key, resp.Results)
		}
		m.ackedDelta += op.delta
		m.lastDigest, m.lastIdem = resp.Digest, op.idem
		return nil
	default:
		if len(resp.Results) != 1 || !resp.Results[0].Found || resp.Results[0].Val < int64(op.key) {
			return fmt.Errorf("get of key %d: results %+v", op.key, resp.Results)
		}
		return nil
	}
}

// checkSum checks that every acknowledged add took effect exactly once:
// kv rows start at value == key and only adds change them.
func checkSum(stage string, got, initial, acked int64) error {
	if got != initial+acked {
		return fmt.Errorf("%s: kv sum %d, want initial %d + acknowledged adds %d = %d",
			stage, got, initial, acked, initial+acked)
	}
	return nil
}
