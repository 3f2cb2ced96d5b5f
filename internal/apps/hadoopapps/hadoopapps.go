// Package hadoopapps implements the paper's seven Hadoop benchmark
// programs (Table 2) over the internal/hadoop engine:
//
//	IUF — Inactive Users Filtering        (StackOverflow users)
//	UAH — Active User Activity Histogram  (StackOverflow posts)
//	SPF — Spam Posts Filtering            (StackOverflow posts)
//	UED — User Engagement Distribution    (StackOverflow users)
//	CED — Community Expert Detection      (StackOverflow posts)
//	IMC — In-Map Combiner word count      (Wikipedia docs)
//	TFC — Term Frequency Calculation      (Wikipedia docs)
//
// The programs are real-world MapReduce shapes taken from the Stack
// Overflow threads the paper cites: filters, histograms, per-user
// aggregations, and combiner-equipped word counting. Schemas and string
// UDF helpers are shared with internal/apps/sparkapps.
package hadoopapps

import (
	"repro/internal/apps/sparkapps"
	"repro/internal/hadoop"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/spark"
)

// Class aliases shared with the spark apps schema.
const (
	ClsUser      = sparkapps.ClsUser
	ClsPost      = sparkapps.ClsPost
	ClsDoc       = sparkapps.ClsDoc
	ClsWordCount = sparkapps.ClsWordCount
	ClsCountRec  = sparkapps.ClsCountRec
)

var tLong = model.Prim(model.KindLong)

// App names.
const (
	IUF = "IUF"
	UAH = "UAH"
	SPF = "SPF"
	UED = "UED"
	CED = "CED"
	IMC = "IMC"
	TFC = "TFC"
)

// AllApps lists the Table 2 programs in paper order.
var AllApps = []string{IUF, UAH, SPF, UED, CED, IMC, TFC}

// Dataset returns which synthetic dataset an app consumes:
// "stackoverflow-users", "stackoverflow-posts" or "wikipedia".
func Dataset(app string) string {
	return map[string]string{
		ClsUser: "stackoverflow-users", ClsPost: "stackoverflow-posts", ClsDoc: "wikipedia",
	}[jobs[app].conf.InClass]
}

// jobs holds each Table 2 program's registration and job template.
var jobs = map[string]struct {
	register func(*ir.Program)
	conf     hadoop.JobConf
}{
	IUF: {registerIUF, hadoop.JobConf{MapDriver: "iufMapStage", ReduceDriver: "iufReduceStage",
		InClass: ClsUser, MapOutClass: ClsUser, OutClass: ClsUser, KeyField: "id"}},
	UAH: {registerUAH, countJob("uahMapStage", ClsPost)},
	SPF: {registerSPF, countJob("spfMapStage", ClsPost)},
	UED: {registerUED, countJob("uedMapStage", ClsUser)},
	CED: {registerCED, countJob("cedMapStage", ClsPost)},
	IMC: {sparkapps.WordCount{}.Register, wordCountJob("wcCombineStage")},
	TFC: {sparkapps.WordCount{}.Register, wordCountJob("")},
}

// countJob is the template of a job whose mapper reads in records and
// emits CountRec records that countReduceStage sums per key.
func countJob(mapDriver, in string) hadoop.JobConf {
	return hadoop.JobConf{MapDriver: mapDriver, ReduceDriver: "countReduceStage",
		InClass: in, MapOutClass: ClsCountRec, OutClass: ClsCountRec, KeyField: "k"}
}

// wordCountJob is the template of the WordCount jobs, with combine as
// the in-map combiner ("" for none).
func wordCountJob(combine string) hadoop.JobConf {
	return hadoop.JobConf{MapDriver: "wcSplitStage", CombineDriver: combine, ReduceDriver: "wcCombineStage",
		InClass: ClsDoc, MapOutClass: ClsWordCount, OutClass: ClsWordCount, KeyField: "word"}
}

// NewProgram builds the program with UDFs for the given app registered
// and returns the program plus the job configuration template. The
// job's top-level data types are its input and map-output classes.
func NewProgram(app string) (*ir.Program, hadoop.JobConf) {
	j, ok := jobs[app]
	if !ok {
		panic("hadoopapps: unknown app " + app)
	}
	conf := j.conf
	conf.Name = app
	types := []string{conf.InClass}
	if conf.MapOutClass != conf.InClass {
		types = append(types, conf.MapOutClass)
	}
	prog := sparkapps.NewProgram(types...)
	j.register(prog)
	return prog, conf
}

// registerIUF: keep users active in the last 90 days with a non-empty
// profile (the profile scan is the text-parsing work real user-table
// mappers do on every row); the reducer is a pass-through.
func registerIUF(prog *ir.Program) {
	b := ir.NewFuncBuilder(prog, "iufMap", model.Type{})
	u := b.Param("u", model.Object(ClsUser))
	la := b.Load(u, "lastActive")
	threshold := b.IConst(90)
	b.If(ir.CmpLE, la, threshold, func() {
		about := b.Load(u, "about")
		words := sparkapps.CountWords(b, about)
		zero := b.IConst(0)
		b.If(ir.CmpGT, words, zero, func() {
			out := b.New(ClsUser)
			id := b.Load(u, "id")
			posts := b.Load(u, "posts")
			rep := b.Load(u, "reputation")
			b.Store(out, "id", id)
			b.Store(out, "lastActive", la)
			b.Store(out, "posts", posts)
			b.Store(out, "reputation", rep)
			cp := sparkapps.CopyString(b, about)
			b.Store(out, "about", cp)
			b.EmitRecord(out)
		}, nil)
	}, nil)
	b.Ret(nil)
	b.Done()

	// Pass-through reduce: the fold never runs for singleton groups, so
	// reuse the generic reduce driver with an identity-preserving combine.
	cb := ir.NewFuncBuilder(prog, "iufCombine", model.Object(ClsUser))
	a := cb.Param("a", model.Object(ClsUser))
	_ = cb.Param("b", model.Object(ClsUser))
	out := cb.New(ClsUser)
	for _, f := range []string{"id", "lastActive", "posts", "reputation"} {
		v := cb.Load(a, f)
		cb.Store(out, f, v)
	}
	ab := cb.Load(a, "about")
	cp := sparkapps.CopyString(cb, ab)
	cb.Store(out, "about", cp)
	cb.Ret(out)
	cb.Done()

	spark.BuildMapDriver(prog, "iufMapStage", "iufMap", ClsUser)
	spark.BuildReduceDriver(prog, "iufReduceStage", "iufCombine", ClsUser)
}

// registerCountReduce defines the shared CountRec sum reducer.
func registerCountReduce(prog *ir.Program) {
	if _, ok := prog.Funcs["countCombine"]; ok {
		return
	}
	cb := ir.NewFuncBuilder(prog, "countCombine", model.Object(ClsCountRec))
	a := cb.Param("a", model.Object(ClsCountRec))
	bb := cb.Param("b", model.Object(ClsCountRec))
	k := cb.Load(a, "k")
	s := cb.Bin(ir.OpAdd, cb.Load(a, "n"), cb.Load(bb, "n"))
	out := cb.New(ClsCountRec)
	cb.Store(out, "k", k)
	cb.Store(out, "n", s)
	cb.Ret(out)
	cb.Done()
	spark.BuildReduceDriver(prog, "countReduceStage", "countCombine", ClsCountRec)
}

// registerUAH: histogram of posting activity by hour of day. The mapper
// tokenizes the post body (empty posts do not count as activity).
func registerUAH(prog *ir.Program) {
	registerCountReduce(prog)
	b := ir.NewFuncBuilder(prog, "uahMap", model.Type{})
	p := b.Param("p", model.Object(ClsPost))
	hour := b.Load(p, "hour")
	body := b.Load(p, "body")
	words := sparkapps.CountWords(b, body)
	zero := b.IConst(0)
	one := b.IConst(1)
	b.If(ir.CmpGT, words, zero, func() {
		out := b.New(ClsCountRec)
		b.Store(out, "k", hour)
		b.Store(out, "n", one)
		b.EmitRecord(out)
	}, nil)
	b.Ret(nil)
	b.Done()
	spark.BuildMapDriver(prog, "uahMapStage", "uahMap", ClsPost)
}

// registerSPF: count spam posts (negative score and few words) per user.
// Tokenizing the body is the per-record parsing work.
func registerSPF(prog *ir.Program) {
	registerCountReduce(prog)
	b := ir.NewFuncBuilder(prog, "spfMap", model.Type{})
	p := b.Param("p", model.Object(ClsPost))
	score := b.Load(p, "score")
	body := b.Load(p, "body")
	words := sparkapps.CountWords(b, body)
	zero := b.IConst(0)
	short := b.IConst(5)
	one := b.IConst(1)
	b.If(ir.CmpLT, score, zero, func() {
		b.If(ir.CmpLT, words, short, func() {
			user := b.Load(p, "user")
			out := b.New(ClsCountRec)
			b.Store(out, "k", user)
			b.Store(out, "n", one)
			b.EmitRecord(out)
		}, nil)
	}, nil)
	b.Ret(nil)
	b.Done()
	spark.BuildMapDriver(prog, "spfMapStage", "spfMap", ClsPost)
}

// registerUED: distribution of users over engagement buckets; engagement
// combines the post count with the scanned profile completeness.
func registerUED(prog *ir.Program) {
	registerCountReduce(prog)
	b := ir.NewFuncBuilder(prog, "uedMap", model.Type{})
	u := b.Param("u", model.Object(ClsUser))
	posts := b.Load(u, "posts")
	about := b.Load(u, "about")
	words := sparkapps.CountWords(b, about)
	eng := b.Bin(ir.OpAdd, posts, words)
	ten := b.IConst(10)
	bucket := b.Bin(ir.OpDiv, eng, ten)
	one := b.IConst(1)
	out := b.New(ClsCountRec)
	b.Store(out, "k", bucket)
	b.Store(out, "n", one)
	b.EmitRecord(out)
	b.Ret(nil)
	b.Done()
	spark.BuildMapDriver(prog, "uedMapStage", "uedMap", ClsUser)
}

// registerCED: total contribution score per user, weighting the vote
// score by the post's scanned length; experts are thresholded by the
// driver on the output.
func registerCED(prog *ir.Program) {
	registerCountReduce(prog)
	b := ir.NewFuncBuilder(prog, "cedMap", model.Type{})
	p := b.Param("p", model.Object(ClsPost))
	user := b.Load(p, "user")
	score := b.Load(p, "score")
	body := b.Load(p, "body")
	words := sparkapps.CountWords(b, body)
	total := b.Bin(ir.OpAdd, score, words)
	out := b.New(ClsCountRec)
	b.Store(out, "k", user)
	b.Store(out, "n", total)
	b.EmitRecord(out)
	b.Ret(nil)
	b.Done()
	spark.BuildMapDriver(prog, "cedMapStage", "cedMap", ClsPost)
}
