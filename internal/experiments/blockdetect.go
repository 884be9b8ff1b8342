package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/baseline"
	"repro/internal/blockfind"
	"repro/internal/fastq"
	"repro/internal/gzipx"
	"repro/internal/stats"
)

// RunBlockDetect measures Section VI-A: the latency of locating the
// next DEFLATE block start from an arbitrary compressed offset. The
// paper reports 100-300 ms (in C, on GB-sized files where the scan
// typically crosses one compressed block, i.e. tens of KB of
// candidate bit offsets).
func RunBlockDetect(c Config, w io.Writer) error {
	c = c.WithDefaults()
	header(w, "Section VI-A: block start detection latency")
	data := fastq.Generate(fastq.GenOptions{
		Reads: int(40000 * clampScale(c.Scale)),
		Seed:  77 + c.Seed,
	})
	for _, level := range []int{1, 6, 9} {
		gz, err := baseline.Compress(data, level)
		if err != nil {
			return err
		}
		m, err := gzipx.ParseHeader(gz)
		if err != nil {
			return err
		}
		payload := gz[m.HeaderLen:]

		var lat stats.Acc
		var scanBits stats.Acc
		f := blockfind.New()
		probes := 12
		for p := 1; p <= probes; p++ {
			from := int64(p) * int64(len(payload)) / int64(probes+2)
			before := f.Stats.BitsTried
			t := time.Now()
			bit, err := f.Next(payload, from*8)
			if err != nil {
				continue
			}
			lat.Add(time.Since(t).Seconds() * 1000)
			scanBits.Add(float64(f.Stats.BitsTried - before))
			_ = bit
		}
		fmt.Fprintf(w, "level %d: latency %s ms over %d probes; bits scanned per probe %s; rejects=%d confirmfails=%d\n",
			level, lat.MeanStd(1), int(lat.N()), scanBits.MeanStd(0), f.Stats.Rejects, f.Stats.ConfirmFails)
	}
	fmt.Fprintln(w, "paper: 100-300 ms per detection (C implementation, larger blocks).")
	return nil
}
