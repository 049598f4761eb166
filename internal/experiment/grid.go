package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"carat/internal/testbed"
)

// runGrid is the sweep engine every experiment grid runs on: it simulates
// jobs independent configurations on opts.Workers goroutines (0 means
// GOMAXPROCS) and returns their Results in job order.
//
// cfg(i) builds job i's configuration and names the job for error
// messages. It runs on a worker goroutine, concurrently with other jobs,
// so it must give each job its own mutable state. Job i's result lands in
// slot i whichever worker ran it, so the output does not depend on the
// worker count. No job starts after the first failure, which is returned
// as "experiment: <name>: <err>". opts.Progress, when set, is called once
// per completed run with the completed and total counts, on the calling
// goroutine, so its calls are serialized without a lock held across them.
func runGrid(jobs int, opts SimOptions, cfg func(i int) (testbed.Config, string)) ([]testbed.Results, error) {
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, jobs)

	out := make([]testbed.Results, jobs)
	finished := make(chan struct{})
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards next and firstErr
		next     int
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next == jobs {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				c, name := cfg(i)
				sys, err := testbed.New(c)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("experiment: %s: %w", name, err)
					}
					mu.Unlock()
					return
				}
				out[i] = sys.Run()
				finished <- struct{}{}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(finished)
	}()

	done := 0
	for range finished {
		done++
		if opts.Progress != nil {
			opts.Progress(done, jobs)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
