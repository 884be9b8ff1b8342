package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/baseline"
	"repro/internal/fastq"
	"repro/internal/stats"
	"repro/internal/tracked"

	pugz "repro"
)

// RunBaselines compares the three routes to random access the paper
// discusses (Section II) on one file, and evaluates the
// undetermined-character guesser (Section VIII's future work):
//
//	pugz     sync anywhere, no preparation, approximate above -1
//	index    zran-style checkpoints [11]: exact, needs one prior pass
//	bgzf     blocked file [12]: exact & parallel, needs re-compression
func RunBaselines(c Config, w io.Writer) error {
	c = c.WithDefaults()
	header(w, "Baselines: three routes to random access (+ guesser)")
	data := fastq.Generate(fastq.GenOptions{
		Reads: int(60000 * clampScale(c.Scale)),
		Seed:  88 + c.Seed,
	})
	gz, err := baseline.Compress(data, 6)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "corpus: %.1f MB FASTQ -> %.1f MB gzip (level 6)\n",
		stats.MB(int64(len(data))), stats.MB(int64(len(gz))))

	const readSize = 1 << 20
	target := int64(len(data)) / 2
	buf := make([]byte, readSize)

	tbl := stats.NewTable("Approach", "Preparation", "Access latency", "Exact?", "Space overhead")

	// --- pugz random access: no preparation.
	t0 := time.Now()
	res, err := pugz.RandomAccess(gz, int64(len(gz))/2, pugz.RandomAccessOptions{MaxOutput: readSize * 2})
	if err != nil {
		return err
	}
	accessPugz := time.Since(t0)
	undetFrac := 0.0
	if len(res.Text) > 0 {
		n := 0
		for _, b := range res.Text[:min(len(res.Text), readSize)] {
			if b == pugz.Undetermined {
				n++
			}
		}
		undetFrac = float64(n) / float64(readSize)
	}
	tbl.AddRow("pugz (this paper)", "none",
		fmt.Sprintf("%.0f ms", accessPugz.Seconds()*1000),
		fmt.Sprintf("no (%.2f%% undetermined here)", undetFrac*100), "none")

	// --- zran index.
	t0 = time.Now()
	ix, err := pugz.BuildIndex(gz, 1<<20)
	if err != nil {
		return err
	}
	prepIx := time.Since(t0)
	blob, err := ix.Marshal()
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := ix.ReadAt(gz, buf, target); err != nil {
		return err
	}
	accessIx := time.Since(t0)
	tbl.AddRow("zran index [11]",
		fmt.Sprintf("%.0f ms full pass", prepIx.Seconds()*1000),
		fmt.Sprintf("%.1f ms", accessIx.Seconds()*1000),
		"yes",
		fmt.Sprintf("index %.2f MB (%d checkpoints)", stats.MB(int64(len(blob))), ix.Checkpoints()))

	// --- BGZF.
	t0 = time.Now()
	bz, err := baseline.CompressBGZF(data, 6)
	if err != nil {
		return err
	}
	prepBz := time.Since(t0)
	t0 = time.Now()
	if _, err := baseline.BGZFReadAt(bz, buf, target); err != nil {
		return err
	}
	accessBz := time.Since(t0)
	tbl.AddRow("BGZF blocked file [12]",
		fmt.Sprintf("%.0f ms re-compress", prepBz.Seconds()*1000),
		fmt.Sprintf("%.1f ms", accessBz.Seconds()*1000),
		"yes",
		fmt.Sprintf("+%.1f%% file size", 100*(float64(len(bz))/float64(len(gz))-1)))
	fmt.Fprint(w, tbl.String())

	// --- Guesser evaluation (Section VIII future work), against truth.
	//
	// The guesser needs recoverable line structure. At normal
	// compression levels the newlines and header '@'s are themselves
	// back-referenced deep into the file (they are the *most* matched
	// content), so structure is unrecoverable and the guesser declines
	// — an informative negative result that parallels the paper's
	// Table I: random access (and hence guessing) is practical at low
	// compression levels.
	for _, level := range []int{1, 6} {
		lgz, err := baseline.Compress(data, level)
		if err != nil {
			return err
		}
		full, err := pugz.RandomAccess(lgz, int64(len(lgz))/2, pugz.RandomAccessOptions{})
		if err != nil {
			return err
		}
		blocks, err := pugz.ScanBlocks(lgz)
		if err != nil {
			return err
		}
		var outStart int64 = -1
		for _, b := range blocks {
			if b.StartBit == full.BlockBit {
				outStart = b.OutStart
				break
			}
		}
		if outStart < 0 {
			return fmt.Errorf("baselines: random-access block not on lattice")
		}
		truth := data[outStart:]
		g := baseline.GuessUndetermined(full.Text, 99)
		undetTotal, right, wrong := 0, 0, 0
		for i := range full.Text {
			if full.Text[i] != tracked.UndeterminedByte {
				continue
			}
			undetTotal++
			if g.Text[i] == tracked.UndeterminedByte {
				continue // declined: not scored
			}
			if g.Text[i] == truth[i] {
				right++
			} else {
				wrong++
			}
		}
		fmt.Fprintf(w, "\nguesser at level %d: %d of %d undetermined characters guessed (%.1f%% coverage)\n",
			level, g.Guessed, undetTotal, 100*float64(g.Guessed)/float64(max(undetTotal, 1)))
		if right+wrong > 0 {
			fmt.Fprintf(w, "  accuracy on guessed positions: %.1f%% (by phase: %v)\n",
				100*float64(right)/float64(right+wrong), g.ByPhase)
		} else {
			fmt.Fprintln(w, "  line structure unrecoverable at this level: guesser declines (no noise emitted)")
		}
	}
	fmt.Fprintln(w, "lossy by construction — useful for forensics, not for exact pipelines.")
	return nil
}
