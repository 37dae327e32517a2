package data

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"

	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/text"
)

// writeSegment seals objs (single kind) as one in-memory segment and
// returns the raw bytes plus the block zone maps.
func writeSegment(t *testing.T, objs []Object, blockRecords int, dict *text.Dict) ([]byte, []BlockStats) {
	t.Helper()
	var buf bytes.Buffer
	cw := NewColWriter(&buf, objs[0].Kind, dict, blockRecords)
	for _, o := range objs {
		if err := cw.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cw.Stats()
}

// frameOf wraps a block payload in its on-disk frame: varint length,
// payload, CRC32.
func frameOf(payload []byte) []byte {
	f := binary.AppendUvarint(nil, uint64(len(payload)))
	f = append(f, payload...)
	return binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(payload))
}

// spq2Payload renders objs in the retired uncompressed SPQ2 block layout:
// a 'D'/'F' kind byte, the record count, zigzag id deltas, raw
// little-endian x and y columns and, for features, per-record keyword
// counts followed by the flat keyword ids. The decoder must reject it;
// tests use it only as corrupt input.
func spq2Payload(kind Kind, objs []Object) []byte {
	b := []byte{colKindByte(kind)}
	b = binary.AppendUvarint(b, uint64(len(objs)))
	prev := uint64(0)
	for _, o := range objs {
		b = binary.AppendVarint(b, int64(o.ID-prev))
		prev = o.ID
	}
	for _, o := range objs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Loc.X))
	}
	for _, o := range objs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Loc.Y))
	}
	if kind == FeatureObject {
		for _, o := range objs {
			b = binary.AppendUvarint(b, uint64(len(o.Keywords)))
		}
		for _, o := range objs {
			for _, kw := range o.Keywords {
				b = binary.AppendUvarint(b, uint64(kw))
			}
		}
	}
	return b
}

func randObjects(r *rand.Rand, n int) []Object {
	objs := make([]Object, n)
	for i := range objs {
		o := Object{ID: uint64(i), Loc: geo.Point{X: r.Float64(), Y: r.Float64()}}
		if r.Intn(2) == 1 {
			o.Kind = FeatureObject
			ids := make([]uint32, 1+r.Intn(10))
			for j := range ids {
				ids[j] = uint32(r.Intn(500))
			}
			o.Keywords = text.NewKeywordSet(ids...)
		}
		objs[i] = o
	}
	return objs
}

func onlyKind(objs []Object, k Kind) []Object {
	var out []Object
	for _, o := range objs {
		if o.Kind == k {
			out = append(out, o)
		}
	}
	return out
}

// TestColSegmentRoundTrip checks the segment framing and the zone maps:
// frames tile the file after its 5-byte header, every block but the last
// is full, each zone map's bounds and bloom cover its block's records, and
// the blocks hold every record. TestCol3SegmentRoundTrip checks the
// decoded records themselves.
func TestColSegmentRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	dict := text.NewDict()
	all := randObjects(r, 700)
	for _, kind := range []Kind{DataObject, FeatureObject} {
		for _, blockRecords := range []int{1, 7, 256, 100000} {
			objs := onlyKind(all, kind)
			raw, stats := writeSegment(t, objs, blockRecords, dict)

			wantBlocks := (len(objs) + blockRecords - 1) / blockRecords
			if len(stats) != wantBlocks {
				t.Fatalf("%v/%d: %d blocks, want %d", kind, blockRecords, len(stats), wantBlocks)
			}
			if !bytes.Equal(raw[:4], []byte("SPQ3")) || raw[4] != colKindByte(kind) {
				t.Fatalf("%v/%d: segment header %q", kind, blockRecords, raw[:5])
			}
			next := int64(5)
			total := 0
			for i, bs := range stats {
				if bs.Offset != next || int(bs.Offset)+bs.Length > len(raw) {
					t.Fatalf("%v/%d: block %d frame (%d+%d) does not follow the previous frame at %d in a %d-byte segment",
						kind, blockRecords, i, bs.Offset, bs.Length, next, len(raw))
				}
				next = bs.Offset + int64(bs.Length)
				if i < len(stats)-1 && bs.Records != blockRecords {
					t.Fatalf("%v/%d: inner block %d holds %d records", kind, blockRecords, i, bs.Records)
				}
				b, err := DecodeColFrame(raw[bs.Offset:next])
				if err != nil {
					t.Fatalf("%v/%d: block %d: %v", kind, blockRecords, i, err)
				}
				if b.Len() != bs.Records {
					t.Fatalf("%v/%d: block %d decoded %d records, zone map says %d",
						kind, blockRecords, i, b.Len(), bs.Records)
				}
				for j := 0; j < b.Len(); j++ {
					o := b.Object(j)
					if !bs.Bounds.Contains(o.Loc) {
						t.Fatalf("%v/%d: block %d object %d outside the zone-map bounds", kind, blockRecords, i, o.ID)
					}
					if kind == FeatureObject {
						for _, w := range dict.Words(o.Keywords) {
							if !bs.Keywords.MayContain(w) {
								t.Fatalf("%v/%d: block %d bloom misses keyword %q", kind, blockRecords, i, w)
							}
						}
					}
				}
				total += bs.Records
			}
			if next != int64(len(raw)) {
				t.Fatalf("%v/%d: frames end at %d, segment has %d bytes", kind, blockRecords, next, len(raw))
			}
			if total != len(objs) {
				t.Fatalf("%v/%d: blocks hold %d records, want %d", kind, blockRecords, total, len(objs))
			}
		}
	}
}

// TestColSegmentRejectsCorruption flips, truncates and extends frames; the
// decoder must return an error every time — never a panic, never objects.
// TestCol3SegmentRejectsCorruption covers payloads behind a valid CRC.
func TestColSegmentRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dict := text.NewDict()
	objs := onlyKind(randObjects(r, 300), FeatureObject)
	raw, stats := writeSegment(t, objs, 64, dict)
	bs := stats[1]
	frame := raw[bs.Offset : bs.Offset+int64(bs.Length)]

	if _, err := DecodeColFrame(frame); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	// Truncations at every prefix length.
	for n := 0; n < len(frame); n++ {
		if _, err := DecodeColFrame(frame[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(frame))
		}
	}
	// Single-bit flips anywhere in the frame: the CRC catches payload
	// damage, the frame checks catch length damage.
	for i := 0; i < len(frame); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << bit
			if _, err := DecodeColFrame(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
	// Trailing garbage.
	if _, err := DecodeColFrame(append(append([]byte(nil), frame...), 0xAB)); err == nil {
		t.Fatal("frame with trailing garbage accepted")
	}
	// Wrong offset (reading mid-frame), the failure mode of a corrupt
	// manifest.
	if _, err := DecodeColFrame(raw[bs.Offset+3 : bs.Offset+3+int64(bs.Length)]); err == nil {
		t.Fatal("misaligned frame accepted")
	}
}

func TestColWriterRejectsMixedKinds(t *testing.T) {
	var buf bytes.Buffer
	cw := NewColWriter(&buf, DataObject, nil, 0)
	if err := cw.Append(Object{Kind: DataObject, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Append(Object{Kind: FeatureObject, ID: 2}); err == nil {
		t.Fatal("feature accepted by a data segment")
	}
}

// TestColInputCacheSharing checks the decoded-segment cache: a second read
// of the same generation serves every block from cache, and a different
// generation misses.
func TestColInputCacheSharing(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	dict := text.NewDict()
	objs := randObjects(r, 500)
	g := grid.NewSquare(3)
	store := MemSegStore{}
	man, err := PartitionObjects(g, objs).SealSegments(store, "c", dict, 32)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewBlockCache(1 << 20)
	drain := func(gen uint64) int {
		in := NewColInput(store, SelectCells(nil, man.Data, man.Features), cache, gen)
		n := 0
		if err := eachSourceObject(in, func(Object) { n++ }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := drain(1); n != len(objs) {
		t.Fatalf("read %d objects, want %d", n, len(objs))
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Misses == 0 || st.Entries != int(st.Misses) {
		t.Fatalf("cold read stats: %+v", st)
	}
	cold := st.Misses
	if n := drain(1); n != len(objs) {
		t.Fatalf("cached read lost objects: %d", n)
	}
	st = cache.Stats()
	if st.Hits != cold || st.Misses != cold {
		t.Fatalf("warm read stats: %+v, want %d hits", st, cold)
	}
	// A generation bump makes every entry unreachable: all misses again.
	drain(2)
	st = cache.Stats()
	if st.Misses != 2*cold {
		t.Fatalf("new generation did not miss: %+v", st)
	}
}

// TestColInputLRUEviction bounds the cache by decoded bytes.
func TestColInputLRUEviction(t *testing.T) {
	blk := &ColumnBlock{Kind: DataObject, IDs: []uint64{1}, Xs: []float64{0}, Ys: []float64{0}}
	cache := NewBlockCache(int64(2 * blk.MemBytes())) // room for two entries
	for i := 0; i < 5; i++ {
		cache.Put(BlockKey{Gen: 1, File: "f", Index: i}, blk)
	}
	if st := cache.Stats(); st.Entries != 2 || st.Bytes != int64(2*blk.MemBytes()) {
		t.Fatalf("cache holds %d entries / %d bytes, want 2 entries within %d bytes",
			st.Entries, st.Bytes, 2*blk.MemBytes())
	}
	if _, ok := cache.Get(BlockKey{Gen: 1, File: "f", Index: 0}); ok {
		t.Fatal("evicted entry still served")
	}
	if _, ok := cache.Get(BlockKey{Gen: 1, File: "f", Index: 4}); !ok {
		t.Fatal("most recent entry evicted")
	}
}

// FuzzDecodeColFrame is the corruption fuzz target: arbitrary bytes must
// decode or fail with an error — never panic, never loop. The corpus
// holds SPQ3 frames, which must decode, and frames of retired SPQ2
// payloads, which must not.
func FuzzDecodeColFrame(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	dict := text.NewDict()
	for _, kind := range []Kind{DataObject, FeatureObject} {
		for _, spq3 := range []bool{false, true} {
			objs := onlyKind(randObjects(r, 120), kind)
			var buf bytes.Buffer
			cw := NewColWriter(&buf, kind, dict, 16)
			for _, o := range objs {
				if err := cw.Append(o); err != nil {
					f.Fatal(err)
				}
			}
			if err := cw.Close(); err != nil {
				f.Fatal(err)
			}
			start := 0
			for _, bs := range cw.Stats() {
				frame := buf.Bytes()[bs.Offset : bs.Offset+int64(bs.Length)]
				if !spq3 {
					frame = frameOf(spq2Payload(kind, objs[start:start+bs.Records]))
				}
				start += bs.Records
				if _, err := DecodeColFrame(frame); (err == nil) != spq3 {
					f.Fatalf("spq3=%v %v frame: decode error %v", spq3, kind, err)
				}
				f.Add(frame)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x05, 'F', 0x01})
	f.Fuzz(func(t *testing.T, frame []byte) {
		b, err := DecodeColFrame(frame)
		if err != nil {
			return
		}
		// Anything that decodes must be internally consistent enough to
		// view every record.
		if b.Len() == 0 {
			t.Fatal("decoded block with zero records")
		}
		for i := 0; i < b.Len(); i++ {
			_ = b.Object(i)
		}
	})
}

// FuzzColBlockRoundTrip drives the encoder with fuzzer-chosen objects and
// checks encode -> frame -> decode is the identity for a two-record block.
func FuzzColBlockRoundTrip(f *testing.F) {
	f.Add(uint64(7), 0.25, -3.5, "alpha,beta", true)
	f.Add(uint64(1<<63), -1e300, 1e-300, "", false)
	f.Add(uint64(0), 0.0, 0.0, strings.Repeat("k,", 40), true)
	f.Fuzz(func(t *testing.T, id uint64, x, y float64, kws string, feature bool) {
		dict := text.NewDict()
		kind := DataObject
		var set text.KeywordSet
		if feature {
			kind = FeatureObject
			if kws != "" {
				set = dict.InternAll(strings.Split(kws, ","))
			}
		}
		objs := []Object{
			{Kind: kind, ID: id, Loc: geo.Point{X: x, Y: y}, Keywords: set},
			{Kind: kind, ID: id / 2, Loc: geo.Point{X: y, Y: x}},
		}
		var buf bytes.Buffer
		cw := NewColWriter(&buf, kind, dict, 0)
		for _, o := range objs {
			if err := cw.Append(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		stats := cw.Stats()
		if len(stats) != 1 {
			t.Fatalf("%d blocks, want 1", len(stats))
		}
		bs := stats[0]
		b, err := DecodeColFrame(buf.Bytes()[bs.Offset : bs.Offset+int64(bs.Length)])
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if b.Len() != len(objs) {
			t.Fatalf("decoded %d records, want %d", b.Len(), len(objs))
		}
		for i, want := range objs {
			got := b.Object(i)
			// NaN coordinates cannot compare equal; compare them as floats
			// that are both NaN instead of by value equality.
			if got.Kind != want.Kind || got.ID != want.ID ||
				!sameFloat(got.Loc.X, want.Loc.X) || !sameFloat(got.Loc.Y, want.Loc.Y) ||
				!got.Keywords.Equal(want.Keywords) {
				t.Fatalf("record %d: got %v, want %v", i, got, want)
			}
		}
	})
}

func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }
