package cli

import (
	"fmt"
	"io"
	"time"

	"trajpattern/internal/core"
)

// ProgressLine returns the -progress callback of trajmine and trajbench:
// it writes one line to w per call, that is per iteration the miner
// counts (the last pass of a run that ends on its own included), with the
// miner's iteration, |H|, |Q|, answer fill, candidates and elapsed time. A
// Mine call makes at most MaxIters calls.
func ProgressLine(w io.Writer) func(core.Progress) {
	return func(u core.Progress) {
		fmt.Fprintf(w, "iter %d/%d  |H|=%d |Q|=%d  answer %d/%d  candidates %d  elapsed %s\n",
			u.Iteration, u.MaxIters, u.HighSize, u.QSize, u.AnswerSize, u.K,
			u.Candidates, u.Elapsed.Round(time.Millisecond))
	}
}
