package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"hrdb"
)

// feed is the one SUBSCRIBE consumer of mixed_tail. It folds the snapshot and
// every delta into a row set (checked against the view at the end) and logs
// when each changed row arrived, which dates a write's visibility.
type feed struct {
	sub    *hrdb.Subscription
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	rows    map[string]bool
	pending map[string]time.Time   // row → when the write that flips it was sent
	arrived map[string][]time.Time // row → when deltas naming it came in
	visible []time.Duration        // write submitted → its delta received
	err     error
}

// openFeed subscribes and returns once the opening snapshot is folded.
func openFeed(ctx context.Context, c *hrdb.Client, name string) (*feed, error) {
	sub, err := c.Subscribe(name)
	if err != nil {
		return nil, err
	}
	first, err := sub.Next(ctx)
	if err != nil {
		sub.Close()
		return nil, err
	}
	if first.Kind != "snapshot" {
		sub.Close()
		return nil, fmt.Errorf("feed %s opened with %q, want a snapshot", name, first.Kind)
	}
	f := &feed{sub: sub, done: make(chan struct{}), rows: map[string]bool{},
		pending: map[string]time.Time{}, arrived: map[string][]time.Time{}}
	for _, r := range first.Rows {
		f.rows[r] = true
	}
	run, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go f.consume(run)
	return f, nil
}

func (f *feed) consume(ctx context.Context) {
	defer close(f.done)
	for {
		ch, err := f.sub.Next(ctx)
		now := time.Now()
		if err != nil {
			if ctx.Err() == nil {
				f.mu.Lock()
				f.err = err
				f.mu.Unlock()
			}
			return
		}
		f.mu.Lock()
		if ch.Kind == "snapshot" {
			f.rows = map[string]bool{}
			for _, r := range ch.Rows {
				f.rows[r] = true
			}
		}
		for _, r := range ch.Removed {
			delete(f.rows, r)
			f.saw(r, now)
		}
		for _, r := range ch.Added {
			f.rows[r] = true
			f.saw(r, now)
		}
		f.mu.Unlock()
	}
}

// saw dates a changed row; called with f.mu held.
func (f *feed) saw(row string, now time.Time) {
	f.arrived[row] = append(f.arrived[row], now)
	if t, ok := f.pending[row]; ok {
		f.visible = append(f.visible, now.Sub(t))
		delete(f.pending, row)
	}
}

// submitted notes that a write flipping row is about to be sent.
func (f *feed) submitted(row string, at time.Time) {
	f.mu.Lock()
	f.pending[row] = at
	f.mu.Unlock()
}

// arrivedAfter returns when the first delta naming row at or after t came in.
func (f *feed) arrivedAfter(row string, t time.Time) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, at := range f.arrived[row] {
		if !at.Before(t) {
			return at, true
		}
	}
	return time.Time{}, false
}

// await blocks until a delta naming row arrives at or after t.
func (f *feed) await(ctx context.Context, row string, t time.Time) error {
	for {
		if _, ok := f.arrivedAfter(row, t); ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("feed never delivered row %s", row)
		case <-f.done:
			return fmt.Errorf("feed ended: %v", f.err)
		case <-time.After(time.Millisecond):
		}
	}
}

// state returns the folded rows, sorted, and the delays seen so far.
func (f *feed) state() ([]string, []time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rows := make([]string, 0, len(f.rows))
	for r := range f.rows {
		rows = append(rows, r)
	}
	sort.Strings(rows)
	return rows, append([]time.Duration(nil), f.visible...), f.err
}

func (f *feed) close() {
	f.cancel()
	f.sub.Close()
	<-f.done
}
