package main

// workload names are the keys BENCHMARK.json and later issues cite. Why each
// exists, and which layer it bypasses, is recorded in README.md.
type workload struct {
	id   int
	name string
	// writes marks a stream that holds write statements.
	writes bool
	// views adds the view manager, a SUBSCRIBE consumer and a replica.
	views bool
	// checkReads compares sampled answers with the in-memory oracle; only
	// sound when nothing writes.
	checkReads bool
}

var workloads = []*workload{
	{id: 0, name: "point_read", checkReads: true},
	{id: 1, name: "analytic_read", checkReads: true},
	{id: 2, name: "durable_write", writes: true},
	{id: 3, name: "mixed_tail", writes: true, views: true},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizes fixes the fixture and stream shapes. The full table was tuned once
// on the seed commit (2 cores) and is frozen: changing it changes what every
// later result is compared against.
type sizes struct {
	animalDepth, animalFanout int // class tree
	instPerLeaf, instPerInner int // instances under each leaf / inner class
	twoParentPct              int // share of instances given a second parent
	colorDepth, colorFanout   int
	huesPerLeaf               int
	zoneClasses               int
	zonesPerClass             int

	fliesChains, chainDepth int // exception chains proposed for Flies
	fliesInst               int // instance-level Flies tuples proposed
	likesTuples             int // Likes tuples proposed
	likesMinLevel           int // shallowest Animal class a Likes tuple may name
	habitatTuples           int

	workingSet       int // Zipf working set, below the 4,096-entry verdict cache
	scratchPerClient int // instances one client's writes rotate through
	pairsPerClient   int // bracket targets per client
	retractLag       int // writes between an insert and its retraction

	// Statements per client per cycle.
	readStream, scanStream, writeStream, mixedStream int
	// warmup is the share of one cycle sent before the clock starts.
	warmupPct int
	// replayWrites is how many write statements, over all clients, follow
	// the post-window checkpoint: the log a reopen has to replay.
	replayWrites int
}

var scales = map[string]sizes{
	// Animal: 3+9+27+81+243 = 363 classes, 243×13 + 117×7 = 3,978 instances
	// plus 16 bracket instances. Color: 3+9+27 = 39 classes, 216 instances.
	"full": {
		animalDepth: 5, animalFanout: 3, instPerLeaf: 13, instPerInner: 7,
		twoParentPct: 5,
		colorDepth:   3, colorFanout: 3, huesPerLeaf: 8,
		zoneClasses: 8, zonesPerClass: 5,
		fliesChains: 8, chainDepth: 4, fliesInst: 40,
		likesTuples: 150, likesMinLevel: 4, habitatTuples: 150,
		workingSet: 1000, scratchPerClient: 24, pairsPerClient: 4, retractLag: 8,
		readStream: 8192, scanStream: 1024, writeStream: 1024, mixedStream: 4096,
		warmupPct: 5, replayWrites: 240,
	},
	// tiny keeps every code path and finishes in well under a second; the
	// smoke test runs it.
	"tiny": {
		animalDepth: 3, animalFanout: 3, instPerLeaf: 4, instPerInner: 2,
		twoParentPct: 10,
		colorDepth:   2, colorFanout: 2, huesPerLeaf: 2,
		zoneClasses: 2, zonesPerClass: 2,
		fliesChains: 6, chainDepth: 3, fliesInst: 6,
		likesTuples: 30, likesMinLevel: 2, habitatTuples: 12,
		workingSet: 40, scratchPerClient: 6, pairsPerClient: 1, retractLag: 3,
		readStream: 128, scanStream: 48, writeStream: 48, mixedStream: 160,
		warmupPct: 5, replayWrites: 24,
	},
}
