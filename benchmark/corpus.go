package main

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
)

// The corpora are generated here, not by internal/fastq or
// internal/framing: those are code under test that a later change may
// alter, and the benchmark's inputs must not move with it. Compression
// is the standard library's for the same reason (and because the
// repository's own compressor is ~10x slower).

const (
	readsBytes = 32 << 20 // reads_l6 plaintext size at scale 1
	logsBytes  = 24 << 20 // logs_l1 plaintext size at scale 1
)

// corpus is one generated input: the plaintext oracle and its gzip.
type corpus struct {
	name     string
	plain    []byte
	gz       []byte
	crc      uint32 // CRC-32 (IEEE) of plain
	plainSHA string
	gzSHA    string
}

// pinned holds the SHA-256 digests (plaintext, gzip) of the seed-1,
// scale-1 corpora. A
// run that generates anything else for that seed stops before
// measuring: the generator or the standard library's compressor
// changed, and numbers would no longer compare with earlier ones.
var pinned = map[string][2]string{
	"reads_l6": {
		"dd6b5ec026b38b806f2d6ec26e3f79a54460585deee9e4028dd3f11e6216897c",
		"026c3b8df87db01700711c65ac7c7205c76b80de5d0f1adc0b6a805e56561371",
	},
	"logs_l1": {
		"ad2c29b447521c2854055a9741133055bed967982f200d4b7e580d116fed288e",
		"ee1a6eebea936b906bf2f9857899a2c1563f35d7797e220cf9ba0d95a214b172",
	},
}

// bitRand hands out small bit fields from one 64-bit draw at a time,
// so a base costs 2 bits of generator output, not a call.
type bitRand struct {
	src rand.Source64
	acc uint64
	n   uint
}

func (b *bitRand) bits(k uint) uint64 {
	if b.n < k {
		b.acc, b.n = b.src.Uint64(), 64
	}
	v := b.acc & (1<<k - 1)
	b.acc >>= k
	b.n -= k
	return v
}

// genFASTQ returns about size bytes of Illumina-like FASTQ ending on a
// record boundary: instrument-style headers with slowly advancing tile
// coordinates, 101-151 random bases with a low N rate, and a quality
// string that starts high, random-walks, and degrades towards the 3'
// end — enough structure that gzip -6 lands near the 3.5-4x of real
// short-read files.
func genFASTQ(seed int64, size int) []byte {
	rng := rand.New(rand.NewSource(seed))
	br := &bitRand{src: rand.NewSource(seed ^ 0x5eed).(rand.Source64)}
	out := make([]byte, 0, size+512)
	const bases = "ACGT"
	tile, x, y := 1101, 1000, 1000
	index := [...]string{"ATCACGTT", "CGATGTAA", "TTAGGCCA", "TGACCAGT"}
	for {
		n := 101 + rng.Intn(51)
		if len(out)+2*n+96 > size {
			return out
		}
		x += 3 + rng.Intn(40)
		if x > 32000 {
			x = 1000 + rng.Intn(50)
			y += 17 + rng.Intn(300)
			if y > 90000 {
				y = 1000
				tile++
			}
		}
		out = append(out, "@A00741:93:HXKT2DSXY:"...)
		out = strconv.AppendInt(out, int64(1+tile%4), 10)
		out = append(out, ':')
		out = strconv.AppendInt(out, int64(tile), 10)
		out = append(out, ':')
		out = strconv.AppendInt(out, int64(x), 10)
		out = append(out, ':')
		out = strconv.AppendInt(out, int64(y), 10)
		out = append(out, " 1:N:0:"...)
		out = append(out, index[tile%len(index)]...)
		out = append(out, '\n')
		for i := 0; i < n; i++ {
			c := bases[br.bits(2)]
			if br.bits(9) == 0 {
				c = 'N'
			}
			out = append(out, c)
		}
		out = append(out, "\n+\n"...)
		q := 37
		for i := 0; i < n; i++ {
			switch r := br.bits(5); {
			case r < 20: // hold
			case r < 25:
				q++
			case r < 30:
				q--
			case r == 30:
				q -= 8
			default:
				q = 37
			}
			if lim := 40 - 12*i/n; q > lim {
				q = lim
			}
			if q < 2 {
				q = 2
			}
			out = append(out, byte('!'+q))
		}
		out = append(out, '\n')
	}
}

// genJSONL returns about size bytes of service-log JSON lines ending on
// a line boundary: a monotonic timestamp and a unique id per line, the
// rest drawn from small vocabularies, so the stream is match-heavy and
// gzip -1 emits large blocks.
func genJSONL(seed int64, size int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, size+512)
	levels := [...]string{"INFO", "INFO", "INFO", "INFO", "DEBUG", "WARN", "ERROR"}
	svcs := [...]string{"checkout", "catalog", "auth", "search", "payments", "gateway"}
	methods := [...]string{"GET", "GET", "GET", "POST", "PUT", "DELETE"}
	paths := [...]string{"/api/v1/orders/", "/api/v1/items/", "/api/v1/users/", "/api/v2/search/", "/healthz/", "/api/v1/carts/"}
	msgs := [...]string{"request completed", "cache miss, fetched from origin", "upstream retry succeeded", "slow query logged", "token refreshed", "rate limit bucket refilled"}
	statuses := [...]int{200, 200, 200, 200, 201, 204, 301, 400, 404, 500}
	ms := int64(1_767_225_600_000) // 2026-01-01T00:00:00Z
	for id := int64(1); ; id++ {
		if len(out)+320 > size {
			return out
		}
		ms += int64(1 + rng.Intn(40))
		sec := ms / 1000
		out = append(out, `{"ts":"2026-01-`...)
		out = append2(out, 1+sec/86400%28)
		out = append(out, 'T')
		out = append2(out, sec/3600%24)
		out = append(out, ':')
		out = append2(out, sec/60%60)
		out = append(out, ':')
		out = append2(out, sec%60)
		out = append(out, '.')
		out = append2(out, ms%1000/10)
		out = append(out, `Z","id":`...)
		out = strconv.AppendInt(out, id, 10)
		out = append(out, `,"level":"`...)
		out = append(out, levels[rng.Intn(len(levels))]...)
		out = append(out, `","svc":"`...)
		out = append(out, svcs[rng.Intn(len(svcs))]...)
		out = append(out, `","host":"ip-10-0-`...)
		out = strconv.AppendInt(out, int64(rng.Intn(16)), 10)
		out = append(out, '-')
		out = strconv.AppendInt(out, int64(rng.Intn(250)), 10)
		out = append(out, `","trace":"`...)
		out = strconv.AppendUint(out, rng.Uint64(), 16)
		out = append(out, `","method":"`...)
		out = append(out, methods[rng.Intn(len(methods))]...)
		out = append(out, `","path":"`...)
		out = append(out, paths[rng.Intn(len(paths))]...)
		out = strconv.AppendInt(out, int64(rng.Intn(100000)), 10)
		out = append(out, `","status":`...)
		out = strconv.AppendInt(out, int64(statuses[rng.Intn(len(statuses))]), 10)
		out = append(out, `,"bytes":`...)
		out = strconv.AppendInt(out, int64(rng.Intn(1<<16)), 10)
		out = append(out, `,"dur_ms":`...)
		out = strconv.AppendInt(out, int64(rng.Intn(900)), 10)
		out = append(out, '.')
		out = strconv.AppendInt(out, int64(rng.Intn(10)), 10)
		out = append(out, `,"msg":"`...)
		out = append(out, msgs[rng.Intn(len(msgs))]...)
		out = append(out, "\"}\n"...)
	}
}

// append2 appends v as two decimal digits.
func append2(b []byte, v int64) []byte {
	return append(b, byte('0'+v/10%10), byte('0'+v%10))
}

// gzipChunked compresses plain into one ordinary gzip member the way
// pigz does: independent chunks deflated concurrently by the standard
// library, each but the last ended with a sync flush (an empty stored
// block on a byte boundary), concatenated under one header and one
// CRC-32/ISIZE trailer. A single member is what makes the decoder do
// its two-pass work; compressing it on every core keeps set-up short.
// The bytes do not depend on the number of workers.
func gzipChunked(plain []byte, level, workers int) ([]byte, error) {
	const chunk = 4 << 20
	n := (len(plain) + chunk - 1) / chunk
	if n == 0 {
		n = 1
	}
	parts := make([]bytes.Buffer, n)
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lo, hi := i*chunk, min((i+1)*chunk, len(plain))
				parts[i].Grow((hi - lo) / 3)
				zw, err := flate.NewWriter(&parts[i], level)
				if err == nil {
					_, err = zw.Write(plain[lo:hi])
				}
				if err == nil && i < n-1 {
					err = zw.Flush()
				} else if err == nil {
					err = zw.Close()
				}
				errs[i] = err
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	xfl := byte(0)
	switch level {
	case flate.BestSpeed:
		xfl = 4
	case flate.BestCompression:
		xfl = 2
	}
	out := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, xfl, 255}
	for i := range parts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, parts[i].Bytes()...)
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(plain))
	return binary.LittleEndian.AppendUint32(out, uint32(len(plain))), nil
}

// newCorpus compresses plain at level and fingerprints both sides.
func newCorpus(name string, plain []byte, level int) (*corpus, error) {
	gz, err := gzipChunked(plain, level, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	ps, gs := sha256.Sum256(plain), sha256.Sum256(gz)
	return &corpus{
		name:     name,
		plain:    plain,
		gz:       gz,
		crc:      crc32.ChecksumIEEE(plain),
		plainSHA: hex.EncodeToString(ps[:]),
		gzSHA:    hex.EncodeToString(gs[:]),
	}, nil
}

// scaled divides a scale-1 size by the tests' divisor, keeping enough
// bytes for several DEFLATE blocks.
func scaled(size, div int) int {
	if s := size / div; s > 256<<10 {
		return s
	}
	return 256 << 10
}

func makeReads(seed int64, div int) (*corpus, error) {
	return newCorpus("reads_l6", genFASTQ(seed, scaled(readsBytes, div)), 6)
}

func makeLogs(seed int64, div int) (*corpus, error) {
	return newCorpus("logs_l1", genJSONL(seed+1, scaled(logsBytes, div)), 1)
}

// checkPinned refuses a seed-1, scale-1 corpus whose digests differ
// from the pinned ones.
func (c *corpus) checkPinned(seed int64, div int) error {
	want, ok := pinned[c.name]
	if !ok || seed != 1 || div != 1 {
		return nil
	}
	if c.plainSHA != want[0] || c.gzSHA != want[1] {
		return fmt.Errorf("corpus %s: seed-1 digests %s / %s differ from the pinned %s / %s",
			c.name, c.plainSHA, c.gzSHA, want[0], want[1])
	}
	return nil
}
