// Livedemo: the same termination-protocol automata running on real
// goroutines, channels and wall-clock timers. A partition is raised while
// the protocol runs and healed shortly after; every site still terminates,
// consistently — the goroutine runtime and the deterministic simulator
// share the identical automaton code.
package main

import (
	"fmt"
	"log"
	"time"

	"termproto"
)

func main() {
	const liveT = 20 * time.Millisecond

	// Schedule times are ticks; the live backend maps T = 1000 ticks onto
	// liveT of wall time. The partition rises mid-protocol and heals 12
	// windows later.
	fmt.Println("5 live sites, T =", liveT)
	fmt.Println("partition: sites 4 and 5 separated at 2T, healed at 14T")
	c, err := termproto.Open(termproto.ClusterConfig{
		Sites:    5,
		Protocol: termproto.TerminationTransient(),
		Backend:  termproto.NewLiveBackend(termproto.LiveOptions{T: liveT, WaitTimeout: 60 * liveT}),
		Schedule: termproto.Schedule{
			termproto.TransientPartitionAt(2000, 14000, 4, 5),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	r, err := c.Submit(termproto.Txn{Master: 1})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		log.Fatal(err)
	}
	// Closing stops the site goroutines, which makes their final automaton
	// states readable.
	if err := c.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	for _, id := range r.Participants {
		s := r.Sites[id]
		fmt.Printf("  site %d: %s (state %s)\n", id, s.Outcome, s.FinalState)
	}
	fmt.Printf("\nall participants decided: %v\n", r.Decided())
	fmt.Printf("outcomes consistent:      %v\n", r.Consistent())
}
