package spark_test

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/model"
	"repro/internal/serde"
	"repro/internal/spark"
)

// Example_quickstart defines a data type, writes a tiny dataflow program
// in the IR, and runs it on both execution paths: the baseline simulated
// managed heap and the Gerenuk-transformed native path. The two must
// produce identical results, and the native path allocates no heap
// objects for its records.
func Example_quickstart() {
	// 1. Define the schema: a Reading record.
	reg := model.NewRegistry()
	reg.DefineString()
	reg.Define(model.ClassDef{Name: "Reading", Fields: []model.FieldDef{
		{Name: "sensor", Type: model.Prim(model.KindLong)},
		{Name: "celsius", Type: model.Prim(model.KindDouble)},
	}})
	prog := ir.NewProgram(reg)
	// The Gerenuk user annotation (paper section 3.1): which types are
	// top-level data records.
	prog.TopTypes = []string{"Reading"}

	// 2. Write the UDF in the IR: convert each reading to Fahrenheit.
	b := ir.NewFuncBuilder(prog, "toFahrenheit", model.Type{})
	rec := b.Param("rec", model.Object("Reading"))
	sensor := b.Load(rec, "sensor")
	c := b.Load(rec, "celsius")
	f := b.Bin(ir.OpAdd, b.Bin(ir.OpMul, c, b.FConst(1.8)), b.FConst(32))
	out := b.New("Reading")
	b.Store(out, "sensor", sensor)
	b.Store(out, "celsius", f)
	b.EmitRecord(out)
	b.Ret(nil)
	b.Done()
	spark.BuildMapDriver(prog, "convertStage", "toFahrenheit", "Reading")

	// sumCombine folds readings per sensor.
	cb := ir.NewFuncBuilder(prog, "sumCombine", model.Object("Reading"))
	a := cb.Param("a", model.Object("Reading"))
	bb := cb.Param("b", model.Object("Reading"))
	k := cb.Load(a, "sensor")
	s := cb.Bin(ir.OpAdd, cb.Load(a, "celsius"), cb.Load(bb, "celsius"))
	acc := cb.New("Reading")
	cb.Store(acc, "sensor", k)
	cb.Store(acc, "celsius", s)
	cb.Ret(acc)
	cb.Done()
	spark.BuildReduceDriver(prog, "sumStage", "sumCombine", "Reading")

	// 3. Compile: DSA layouts + SER analysis + Algorithm 1 run on demand.
	comp := engine.Compile(prog)

	// 4. Generate input wire records (what a disk split would hold).
	var input []byte
	var err error
	for i := 0; i < 12; i++ {
		input, err = comp.Codec.Encode("Reading", serde.Obj{
			"sensor": int64(i % 3), "celsius": float64(10 + i),
		}, input)
		if err != nil {
			log.Fatal(err)
		}
	}

	// 5. Run in both modes and compare.
	var sums []map[int64]float64
	for _, mode := range []engine.Mode{engine.Baseline, engine.Gerenuk} {
		ctx := spark.NewContext(comp, mode)
		ctx.Partitions = 2
		converted, err := ctx.Parallelize("Reading", [][]byte{input}).MapPartitions("convertStage", "Reading")
		if err != nil {
			log.Fatal(err)
		}
		summed, err := converted.ReduceByKey("sumStage", "sensor")
		if err != nil {
			log.Fatal(err)
		}
		m := map[int64]float64{}
		buf := summed.CollectBytes()
		for off := 0; off < len(buf); {
			v, next, err := comp.Codec.Decode("Reading", buf, off)
			if err != nil {
				log.Fatal(err)
			}
			o := v.(serde.Obj)
			m[o["sensor"].(int64)] = o["celsius"].(float64)
			off = next
		}
		sums = append(sums, m)
		fmt.Printf("%s run allocated heap objects: %v\n", mode, ctx.Stats.AllocObjects > 0)
	}

	same := len(sums[0]) == len(sums[1])
	var sensors []int64
	for id, v := range sums[0] {
		same = same && sums[1][id] == v
		sensors = append(sensors, id)
	}
	sort.Slice(sensors, func(i, j int) bool { return sensors[i] < sensors[j] })
	for _, id := range sensors {
		fmt.Printf("sensor %d: sum %.1f°F\n", id, sums[0][id])
	}
	fmt.Printf("per-sensor sums identical across modes: %v\n", same)
	// Output:
	// baseline run allocated heap objects: true
	// gerenuk run allocated heap objects: false
	// sensor 0: sum 232.4°F
	// sensor 1: sum 239.6°F
	// sensor 2: sum 246.8°F
	// per-sensor sums identical across modes: true
}
