package dag

import (
	"errors"
	"reflect"
	"testing"
)

func TestPredAccessor(t *testing.T) {
	g, ids := buildDiamond(t)
	if got := g.Pred(ids[3]); !reflect.DeepEqual(got, []int{ids[1], ids[2]}) {
		t.Fatalf("Pred = %v", got)
	}
	if got := g.Pred(99); got != nil {
		t.Fatalf("Pred(missing) = %v", got)
	}
}

func TestReachableSetAccessor(t *testing.T) {
	g, ids := buildDiamond(t)
	set, err := g.Reach(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 4 {
		t.Fatalf("reach count = %d", set.Count())
	}
	if _, err := g.Reach(99); !errors.Is(err, ErrNoNode) {
		t.Fatalf("got %v", err)
	}
}
