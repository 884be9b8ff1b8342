package serve

import "sync"

// flightGroup is a minimal singleflight: concurrent Do calls with the
// same key share one execution of fn and all receive its result. It
// exists so N concurrent cold requests trigger exactly one handle open
// per blob (and, transitively, one background index build) and exactly
// one decode per checkpoint span, without pulling in golang.org/x/sync.
type flightGroup[K comparable] struct {
	mu sync.Mutex
	m  map[K]*flightCall // guarded by mu
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// Do runs fn once per concurrent set of callers sharing key, returning
// fn's value and error to every caller. The key is forgotten once the
// call completes, so a later Do runs fn again (the cache in front of
// this decides whether that happens).
func (g *flightGroup[K]) Do(key K, fn func() (any, error)) (any, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err
}
