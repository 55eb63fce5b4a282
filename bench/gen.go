package main

import (
	"fmt"
	"math/rand"
	"strings"

	"hrdb"
)

// maxClients is the number of client slots the fixture reserves write
// targets for. The harness runs C = min(nproc, maxClients) of them, so the
// fixture and every stream are the same on any machine.
const maxClients = 4

// Statement classes: what a statement's latency is reported under.
const (
	classPoint = "point" // HOLDS / WHY
	classScan  = "scan"  // SELECT / COUNT / EXTENSION on a base relation
	classView  = "view"  // a read that names a materialized view
	classWrite = "write" // one ASSERT/DENY/RETRACT or one BEGIN…COMMIT bracket
)

// stmt is one request a client sends: the HQL text is all the server sees.
type stmt struct {
	Text  string
	Class string
	// Row is the FliesFlat row a write is sure to add or remove, if any:
	// how a feed delta is matched to the write that caused it.
	Row string
}

// pair is a two-parent instance whose parents are sibling leaf classes that
// no fixture tuple and no other two-parent instance touches: asserting on
// one parent and denying on the other conflicts exactly at the instance,
// which is the Patricia case (§3.1) a write bracket ships with its
// resolution.
type pair struct{ X, Y, Inst string }

// flip is a scratch instance together with the sign that changes its Flies
// verdict in the fixture, so a write on it always changes a view row.
type flip struct {
	Inst string
	Sign bool
}

// fixture is the seeded database every workload starts from, as the HQL
// script that loads it plus the name pools the streams draw from.
type fixture struct {
	Script string

	classes   [][]string // Animal classes by level, level 1 first
	instances []string   // Animal instances
	hueClass  [][]string // Color classes by level
	hues      []string   // Color instances
	zones     []string   // Zone instances

	working [][]string     // Zipf working set: {relation, values...}
	scratch [][]flip       // per client slot: instances only that client writes
	pairs   [][]pair       // per client slot: bracket targets
	probe   []string       // per client slot: instance for traced Store.ApplyTx
	counts  map[string]int // tuples per relation after loading
}

// shapeSeed draws the fixture's shape: which classes carry tuples, of which
// sign, which instances have a second parent. The shape is the same for
// every --seed, because the cost of a write's ambiguity check and of a scan
// depends on it and a benchmark whose cost moved with the seed could not
// tell a regression from a reroll. The seed decides every name (so which
// node plays which part), the working set and the statement streams.
const shapeSeed = 1989

// genFixture builds the fixture for a seed: the HQL script that loads it and
// the name pools the streams draw from. The script is consistent by
// construction (the rules are stated where the tuples are placed) and each
// relation loads in one bracket, so the engine's own ambiguity check proves
// it: genFixture loads what it generated and fails if the engine refuses.
func genFixture(seed int64, sz sizes) (*fixture, error) {
	shape := rand.New(rand.NewSource(shapeSeed))
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{counts: map[string]int{}}
	var b strings.Builder
	// label hands out the n names of one kind in seeded order.
	label := func(format string, n int) func() string {
		order, next := rng.Perm(n), 0
		return func() string {
			next++
			return fmt.Sprintf(format, order[next-1])
		}
	}
	pow := func(base, exp int) int {
		n := 1
		for ; exp > 0; exp-- {
			n *= base
		}
		return n
	}

	// Animal: a regular tree of classes, so subtree sizes — and with them
	// the cost of a scan under a class at a given depth — do not depend on
	// the seed.
	b.WriteString("CREATE HIERARCHY Animal;\n")
	parentOf := map[string]string{}
	children := map[string][]string{}
	prev := []string{"Animal"}
	for lvl := 1; lvl <= sz.animalDepth; lvl++ {
		var cur []string
		name := label(fmt.Sprintf("a%d_%%03d", lvl), pow(sz.animalFanout, lvl))
		for _, p := range prev {
			for k := 0; k < sz.animalFanout; k++ {
				c := name()
				fmt.Fprintf(&b, "CLASS %s UNDER %s IN Animal;\n", c, p)
				parentOf[c] = p
				children[p] = append(children[p], c)
				cur = append(cur, c)
			}
		}
		f.classes = append(f.classes, cur)
		prev = cur
	}
	leaves := f.classes[sz.animalDepth-1]

	// The first sibling leaf pairs are reserved for write brackets.
	reserved := map[string]bool{}
	nPairs := maxClients * sz.pairsPerClient
	if 2*nPairs+2 > len(leaves) || sz.animalFanout < 2 {
		return nil, fmt.Errorf("gen: %d leaf classes cannot hold %d reserved pairs", len(leaves), nPairs)
	}
	f.pairs = make([][]pair, maxClients)
	pairName := label("p%03d", nPairs)
	for i := 0; i < nPairs; i++ {
		// Leaves are laid out parent by parent, so 2 consecutive names
		// starting at a multiple of the fanout are siblings.
		base := (i / (sz.animalFanout / 2)) * sz.animalFanout
		off := (i % (sz.animalFanout / 2)) * 2
		x, y := leaves[base+off], leaves[base+off+1]
		reserved[x], reserved[y] = true, true
		inst := pairName()
		fmt.Fprintf(&b, "INSTANCE %s UNDER %s, %s IN Animal;\n", inst, x, y)
		f.pairs[i%maxClients] = append(f.pairs[i%maxClients], pair{X: x, Y: y, Inst: inst})
	}
	var open []string // leaf classes a second parent may be drawn from
	for _, l := range leaves {
		if !reserved[l] {
			open = append(open, l)
		}
	}

	first, second := map[string]string{}, map[string]string{} // an instance's parents
	inner := 0
	for lvl := 2; lvl < sz.animalDepth; lvl++ {
		inner += len(f.classes[lvl-1])
	}
	instName := label("i%05d", len(leaves)*sz.instPerLeaf+inner*sz.instPerInner)
	addInst := func(parent string) {
		name := instName()
		first[name] = parent
		if !reserved[parent] && shape.Intn(100) < sz.twoParentPct {
			// A second parent above or below the first would be a
			// redundant edge, which switches the engine to exhaustive
			// conflict checking.
			if s := open[shape.Intn(len(open))]; !isAncestor(parentOf, parent, s) {
				second[name] = s
			}
		}
		if s := second[name]; s != "" {
			fmt.Fprintf(&b, "INSTANCE %s UNDER %s, %s IN Animal;\n", name, parent, s)
		} else {
			fmt.Fprintf(&b, "INSTANCE %s UNDER %s IN Animal;\n", name, parent)
		}
		f.instances = append(f.instances, name)
	}
	for _, l := range leaves {
		for k := 0; k < sz.instPerLeaf; k++ {
			addInst(l)
		}
	}
	for lvl := 2; lvl < sz.animalDepth; lvl++ {
		for _, c := range f.classes[lvl-1] {
			for k := 0; k < sz.instPerInner; k++ {
				addInst(c)
			}
		}
	}
	b.WriteString("CREATE HIERARCHY Color;\n")
	prev = []string{"Color"}
	for lvl := 1; lvl <= sz.colorDepth; lvl++ {
		var cur []string
		name := label(fmt.Sprintf("h%d_%%02d", lvl), pow(sz.colorFanout, lvl))
		for _, p := range prev {
			for k := 0; k < sz.colorFanout; k++ {
				c := name()
				fmt.Fprintf(&b, "CLASS %s UNDER %s IN Color;\n", c, p)
				cur = append(cur, c)
			}
		}
		f.hueClass = append(f.hueClass, cur)
		prev = cur
	}
	hueName := label("hue%03d", len(prev)*sz.huesPerLeaf)
	for _, l := range prev {
		for k := 0; k < sz.huesPerLeaf; k++ {
			name := hueName()
			fmt.Fprintf(&b, "INSTANCE %s UNDER %s IN Color;\n", name, l)
			f.hues = append(f.hues, name)
		}
	}
	b.WriteString("CREATE HIERARCHY Zone;\n")
	zoneName := label("zone%03d", sz.zoneClasses*sz.zonesPerClass)
	for z := 0; z < sz.zoneClasses; z++ {
		fmt.Fprintf(&b, "CLASS z%02d IN Zone;\n", z)
		for k := 0; k < sz.zonesPerClass; k++ {
			name := zoneName()
			fmt.Fprintf(&b, "INSTANCE %s UNDER z%02d IN Zone;\n", name, z)
			f.zones = append(f.zones, name)
		}
	}
	b.WriteString("CREATE RELATION Flies (Creature: Animal);\n")
	b.WriteString("CREATE RELATION Likes (Creature: Animal, Hue: Color);\n")
	b.WriteString("CREATE RELATION Habitat (Creature: Animal, Zone: Zone);\n")

	// Scratch instances are set aside before any tuple is placed: the
	// fixture never names them, so a stream's write on one cannot collide
	// with a stored tuple. They have one parent outside the reserved
	// classes, so no class-level write can conflict at them or move them.
	var free []string // instances fixture tuples may name
	held := 0
	f.scratch = make([][]flip, maxClients)
	for _, i := range shape.Perm(len(f.instances)) {
		inst := f.instances[i]
		c := held / (sz.scratchPerClient + 1)
		switch {
		case c >= maxClients || second[inst] != "" || reserved[first[inst]]:
			free = append(free, inst)
			continue
		case held%(sz.scratchPerClient+1) == 0:
			f.probe = append(f.probe, inst)
		default:
			f.scratch[c] = append(f.scratch[c], flip{Inst: inst})
		}
		held++
	}
	if held < maxClients*(sz.scratchPerClient+1) {
		return nil, fmt.Errorf("gen: %d instances cannot spare the scratch ones", len(f.instances))
	}
	pick := func(pool []string) string { return pool[shape.Intn(len(pool))] }
	animalClass := func(lo, hi int) string {
		for {
			if c := pick(f.classes[lo-1+shape.Intn(hi-lo+1)]); !reserved[c] {
				return c
			}
		}
	}

	// Each relation loads in one bracket, so the ambiguity check runs once
	// over the finished relation and rejects the fixture if the rules
	// below ever let a conflict through.
	placed := map[string]bool{} // relation + item
	var batch []hrdb.TxOp
	place := func(sign bool, rel string, values ...string) bool {
		k := rel + "\x00" + strings.Join(values, "\x00")
		if placed[k] {
			return false
		}
		placed[k] = true
		batch = append(batch, tuple(sign, rel, values...))
		return true
	}
	flush := func() {
		if len(batch) > 0 {
			f.counts[batch[0].Relation] = len(batch)
			writeBatch(&b, batch)
			batch = nil
		}
	}

	// Flies: exception chains — a class, then alternating signs down one of
	// its descendant paths — plus instance-level exceptions. Classes form a
	// tree, so class tuples can only conflict at an instance with two
	// parents whose nearest signed ancestors disagree and are incomparable
	// (Patricia, §3.1); each such instance ships with its resolving tuple.
	fliesSign := map[string]bool{}
	for k := 0; k < sz.fliesChains; k++ {
		c := animalClass(1, 2)
		sign := shape.Intn(4) != 0
		for d := 0; d < sz.chainDepth; d++ {
			if place(sign, "Flies", c) {
				fliesSign[c] = sign
			}
			sign = !fliesSign[c]
			kids := children[c]
			if len(kids) == 0 {
				break
			}
			if c = kids[shape.Intn(len(kids))]; reserved[c] {
				break
			}
		}
	}
	binder := func(c string) string {
		for ; c != ""; c = parentOf[c] {
			if _, ok := fliesSign[c]; ok {
				return c
			}
		}
		return ""
	}
	for _, inst := range f.instances {
		if second[inst] == "" {
			continue
		}
		n1, n2 := binder(first[inst]), binder(second[inst])
		if n1 == "" || n2 == "" || fliesSign[n1] == fliesSign[n2] ||
			isAncestor(parentOf, n1, n2) || isAncestor(parentOf, n2, n1) {
			continue
		}
		place(shape.Intn(2) == 0, "Flies", inst)
	}
	for k := 0; k < sz.fliesInst; k++ {
		place(shape.Intn(2) == 0, "Flies", pick(free))
	}
	flush()

	// Likes: tuples over the product hierarchy (Fig. 2). Positive tuples sit
	// at any level. A negative tuple names one instance and a hue class, so
	// the only tuples it can be incomparable with are positive ones on an
	// ancestor of the instance and a strictly narrower hue class; each such
	// overlap (Fig. 3) ships with a resolving tuple at its meet, and a
	// negative resolver is itself resolved the same way.
	type likes struct{ creature, hue string }
	var positives []likes
	hueParent := map[string]string{}
	for lvl := 1; lvl < len(f.hueClass); lvl++ {
		for i, c := range f.hueClass[lvl] {
			hueParent[c] = f.hueClass[lvl-1][i/sz.colorFanout]
		}
	}
	for i, h := range f.hues {
		hueParent[h] = f.hueClass[len(f.hueClass)-1][i/sz.huesPerLeaf]
	}
	for k := 0; k < sz.likesTuples*4/5; k++ {
		t := likes{animalClass(sz.likesMinLevel, sz.animalDepth), pick(f.hueClass[sz.colorDepth-1])}
		if shape.Intn(3) == 0 {
			t.creature = pick(free)
		}
		if shape.Intn(3) == 0 {
			t.hue = pick(f.hues)
		}
		if place(true, "Likes", t.creature, t.hue) {
			positives = append(positives, t)
		}
	}
	var negatives []likes
	for k := 0; k < sz.likesTuples/5; k++ {
		inst := pick(free)
		if second[inst] != "" {
			continue
		}
		t := likes{inst, pick(f.hueClass[shape.Intn(sz.colorDepth)])}
		if place(false, "Likes", t.creature, t.hue) {
			negatives = append(negatives, t)
		}
	}
	for len(negatives) > 0 {
		n := negatives[0]
		negatives = negatives[1:]
		for _, p := range positives {
			if p.hue == n.hue || !isAncestor(hueParent, n.hue, p.hue) ||
				!(p.creature == n.creature || isAncestor(parentOf, p.creature, first[n.creature])) {
				continue
			}
			sign := shape.Intn(2) == 0
			if place(sign, "Likes", n.creature, p.hue) && !sign {
				negatives = append(negatives, likes{n.creature, p.hue})
			}
		}
	}
	flush()

	// Habitat: positive at any level, negative only at single atoms, which
	// every overlapping tuple subsumes.
	for k := 0; k < sz.habitatTuples; k++ {
		if shape.Intn(6) == 0 {
			place(false, "Habitat", pick(free), pick(f.zones))
			continue
		}
		zone := fmt.Sprintf("z%02d", shape.Intn(sz.zoneClasses))
		if shape.Intn(2) == 0 {
			zone = pick(f.zones)
		}
		place(true, "Habitat", animalClass(sz.likesMinLevel, sz.animalDepth), zone)
	}
	flush()
	f.Script = b.String()

	// The working set and the flip signs read verdicts off the loaded
	// fixture.
	db := hrdb.NewDatabase()
	if _, err := hrdb.NewSession(db).Exec(f.Script); err != nil {
		return nil, fmt.Errorf("gen: fixture does not load: %w", err)
	}
	for c := range f.scratch {
		for k := range f.scratch[c] {
			ok, err := db.Holds("Flies", f.scratch[c][k].Inst)
			if err != nil {
				return nil, fmt.Errorf("gen: scratch verdict: %w", err)
			}
			f.scratch[c][k].Sign = !ok
		}
	}
	for len(f.working) < sz.workingSet {
		item := []string{"Flies", free[rng.Intn(len(free))]}
		if len(f.working)%2 == 1 {
			item = []string{"Likes", item[1], f.hues[rng.Intn(len(f.hues))]}
		}
		f.working = append(f.working, item)
	}
	return f, nil
}

func isAncestor(parentOf map[string]string, anc, n string) bool {
	for n != "" {
		if n == anc {
			return true
		}
		n = parentOf[n]
	}
	return false
}

func tuple(sign bool, rel string, values ...string) hrdb.TxOp {
	kind := "assert"
	if !sign {
		kind = "deny"
	}
	return hrdb.TxOp{Kind: kind, Relation: rel, Values: append([]string(nil), values...)}
}

func retract(rel string, values ...string) hrdb.TxOp {
	return hrdb.TxOp{Kind: "retract", Relation: rel, Values: append([]string(nil), values...)}
}

// writeBatch renders ops as HQL: one statement, or a BEGIN…COMMIT bracket.
func writeBatch(b *strings.Builder, ops []hrdb.TxOp) {
	if len(ops) > 1 {
		b.WriteString("BEGIN; ")
	}
	for _, o := range ops {
		fmt.Fprintf(b, "%s %s (%s); ", strings.ToUpper(o.Kind), o.Relation, strings.Join(o.Values, ", "))
	}
	if len(ops) > 1 {
		b.WriteString("COMMIT;")
	}
	b.WriteString("\n")
}

func batchText(ops ...hrdb.TxOp) string {
	var b strings.Builder
	writeBatch(&b, ops)
	return strings.TrimSpace(b.String())
}

// deck deals categories in fixed proportions: every pass over the shuffled
// deck holds exactly counts[i] cards of category i. Two seeds therefore send
// the same mix — the same share of heavy statements — and differ in order
// and targets only.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for cat, n := range counts {
		for ; n > 0; n-- {
			d.cards = append(d.cards, cat)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// genStream builds one client's statements for a workload. Streams are
// cycles: a client that reaches the end starts over, and a write stream
// ends in the state it began in, so the database stays the same size however
// long the run lasts.
func genStream(f *fixture, w *workload, seed int64, client int, sz sizes) []stmt {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(w.id)*101 + int64(client)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(f.working)-1))
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	verbs := newDeck(rng, 3, 1)
	point := func(item []string) stmt {
		verb := [...]string{"HOLDS", "WHY"}[verbs.draw()]
		return stmt{Class: classPoint, Text: fmt.Sprintf("%s %s (%s);", verb, item[0], strings.Join(item[1:], ", "))}
	}
	hot := func() stmt { return point(f.working[zipf.Uint64()]) }
	cold := func() stmt {
		if rng.Intn(2) == 0 {
			return point([]string{"Flies", pick(f.instances)})
		}
		return point([]string{"Likes", pick(f.instances), pick(f.hues)})
	}
	// A class at an evenly dealt depth, the root included: under a deep
	// class the planner probes the index, under the root it scans.
	ones := make([]int, len(f.classes)+1)
	for i := range ones {
		ones[i] = 1
	}
	depths := newDeck(rng, ones...)
	under := func(rel string) stmt {
		class := "Animal"
		if d := depths.draw(); d > 0 {
			class = pick(f.classes[d-1])
		}
		return stmt{Class: classScan, Text: fmt.Sprintf("SELECT FROM %s WHERE Creature UNDER %s;", rel, class)}
	}

	var out []stmt
	switch w.name {
	case "point_read":
		for len(out) < sz.readStream {
			out = append(out, hot())
		}
	case "analytic_read":
		mix := newDeck(rng, 9, 4, 1, 1, 5)
		for len(out) < sz.scanStream {
			switch mix.draw() {
			case 0:
				out = append(out, under("Likes"))
			case 1:
				out = append(out, under("Flies"))
			case 2:
				out = append(out, stmt{Class: classScan, Text: "COUNT Likes BY (Hue);"})
			case 3:
				out = append(out, stmt{Class: classScan, Text: "EXTENSION Flies;"})
			default:
				out = append(out, cold())
			}
		}
	case "durable_write":
		out = writeCycle(f, rng, client, sz, sz.writeStream, func() (stmt, bool) { return stmt{}, false })
	case "mixed_tail":
		mix := newDeck(rng, 2, 15, 1, 1, 1)
		out = writeCycle(f, rng, client, sz, sz.mixedStream, func() (stmt, bool) {
			switch mix.draw() {
			case 0:
				return stmt{}, false
			case 1:
				return hot(), true
			case 2:
				return under("Flies"), true
			case 3:
				return stmt{Class: classView, Text: fmt.Sprintf("SELECT FROM FliesFlat WHERE Creature UNDER %s;", pick(f.classes[len(f.classes)-1]))}, true
			default:
				return stmt{Class: classView, Text: fmt.Sprintf("HOLDS FliesFlat (%s);", pick(f.instances))}, true
			}
		})
	}
	return out
}

// writeCycle lays out n statements. At each position read() may supply a
// read; otherwise the position takes a write: the retraction of an insert
// made retractLag writes earlier if one is due, else a new insert — 30%
// brackets, the rest single tuples. Once no new insert can be retracted
// before the end, the tail drains what is outstanding, so the cycle is
// size-neutral.
func writeCycle(f *fixture, rng *rand.Rand, client int, sz sizes, n int, read func() (stmt, bool)) []stmt {
	type pending struct {
		due  int
		row  string
		undo []hrdb.TxOp
		back func() // returns the target to its pool once retracted
	}
	var (
		out     []stmt
		queue   []pending
		writes  int
		scratch = append([]flip(nil), f.scratch[client]...)
		pairs   = append([]pair(nil), f.pairs[client]...)
		kinds   = newDeck(rng, 12, 7, 21) // bracket, Likes tuple, Flies tuple
	)
	emit := func(row string, ops ...hrdb.TxOp) {
		out = append(out, stmt{Class: classWrite, Text: batchText(ops...), Row: row})
		writes++
	}
	for len(out) < n || len(queue) > 0 {
		if len(out) < n {
			if s, ok := read(); ok {
				out = append(out, s)
				continue
			}
		}
		if len(queue) > 0 && (queue[0].due <= writes || len(out) >= n-len(queue)) {
			emit(queue[0].row, queue[0].undo...)
			queue[0].back()
			queue = queue[1:]
			continue
		}
		hue := f.hues[rng.Intn(len(f.hues))]
		kind := kinds.draw()
		if kind == 0 && len(pairs) > 0 {
			// The conflict (+X, −Y) with its resolution at the shared
			// instance, and the instance's Likes tuple: four ops.
			p := pairs[0]
			pairs = pairs[1:]
			emit("", tuple(true, "Flies", p.X), tuple(false, "Flies", p.Y),
				tuple(rng.Intn(2) == 0, "Flies", p.Inst), tuple(true, "Likes", p.Inst, hue))
			queue = append(queue, pending{due: writes + sz.retractLag, back: func() { pairs = append(pairs, p) }, undo: []hrdb.TxOp{
				retract("Flies", p.X), retract("Flies", p.Y), retract("Flies", p.Inst), retract("Likes", p.Inst, hue)}})
			continue
		}
		s := scratch[0]
		scratch = scratch[1:]
		q := pending{back: func() { scratch = append(scratch, s) }}
		if kind == 1 {
			emit("", tuple(rng.Intn(2) == 0, "Likes", s.Inst, hue))
			q.undo = []hrdb.TxOp{retract("Likes", s.Inst, hue)}
		} else {
			// The sign that changes the instance's verdict, so the view
			// gains or loses its row and the feed carries a delta.
			q.row = "(" + s.Inst + ")"
			emit(q.row, tuple(s.Sign, "Flies", s.Inst))
			q.undo = []hrdb.TxOp{retract("Flies", s.Inst)}
		}
		q.due = writes + sz.retractLag
		queue = append(queue, q)
	}
	return out
}
