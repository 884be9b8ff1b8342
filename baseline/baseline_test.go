package baseline

import (
	"bytes"
	"testing"

	"repro/internal/fastq"
)

func TestGuessUndetermined(t *testing.T) {
	data := fastq.Generate(fastq.GenOptions{Reads: 500, Seed: 73})
	masked := append([]byte{}, data...)
	for i := 100; i < len(masked); i += 31 {
		if masked[i] != '\n' {
			masked[i] = '?'
		}
	}
	before := append([]byte{}, masked...)
	res := GuessUndetermined(masked, 7)
	if res.Guessed == 0 {
		t.Fatal("nothing guessed")
	}
	if len(res.Text) != len(masked) {
		t.Fatal("length changed")
	}
	if !bytes.Equal(masked, before) {
		t.Fatal("input was modified")
	}
	sum := 0
	for phase, n := range res.ByPhase {
		if n <= 0 {
			t.Fatalf("phase %s listed with %d guesses", phase, n)
		}
		sum += n
	}
	if sum != res.Guessed {
		t.Fatalf("phases sum to %d guesses, want %d", sum, res.Guessed)
	}
}
