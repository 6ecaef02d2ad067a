package main

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/clock"
	"repro/internal/ethernet"
	"repro/internal/fame"
	"repro/internal/riscv"
	"repro/internal/snapshot"
	"repro/internal/soc"
	"repro/internal/switchmodel"
)

// socMixConfig sizes the soc-mix workload.
type socMixConfig struct {
	blades int // the first half keeps every hart busy, the rest one hart
	// sweepBytes is each odd hart's load/store buffer: 4× the 256 KiB L2,
	// so the sweep misses through to the DRAM model.
	sweepBytes int32
	link       clock.Cycles
	region     clock.Cycles
	regions    int
}

// socMix is the node-model workload: quad-core blades (the Table I blade)
// running machine code behind one idle ToR, under RunParallel.
func socMix(workers int) *inprocWorkload {
	return socMixWorkload(socMixConfig{blades: 8, sweepBytes: 1 << 20, link: 6400, region: 6400 * 40, regions: 10}, workers)
}

func socMixWorkload(c socMixConfig, workers int) *inprocWorkload {
	return &inprocWorkload{
		name:        "soc-mix",
		parallel:    true,
		step:        c.link,
		region:      c.region,
		regions:     c.regions,
		minEpisodes: 3,
		build: func(seed uint64, parallel bool) (*instance, error) {
			return buildSoCMix(c, seed, parallel, workers)
		},
	}
}

// mixer is the seed's deterministic stream of program constants.
type mixer uint64

func (m *mixer) next() uint64 {
	*m += 0x9e3779b97f4a7c15
	z := uint64(*m)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// sweepBase is where hart 0's sweep window starts: far above the program,
// offset by a seed-chosen page. Hart h sweeps from sweepBase + h·2 MiB.
func sweepBase(page uint64) uint64 {
	return soc.DRAMBase + 16<<20 + page<<12
}

// socProgram assembles one blade's machine code. With allBusy, even harts
// run an L1-resident ALU loop and odd harts sweep their buffer with loads
// and stores; otherwise hart 0 runs the ALU loop and the rest park in WFI.
// The seed picks the loop constants and the buffers' page offsets, which
// change the simulated outcome but not the work.
func socProgram(allBusy bool, sweepBytes int32, m *mixer) ([]byte, error) {
	a := riscv.NewAsm()
	a.CSRRS(riscv.T0, riscv.CSRMHartID, riscv.Zero)
	if allBusy {
		a.ANDI(riscv.T1, riscv.T0, 1)
		a.BNE(riscv.T1, riscv.Zero, "sweep")
	} else {
		a.BNE(riscv.T0, riscv.Zero, "park")
	}

	a.LI(riscv.T2, int32(m.next()>>34))
	a.LI(riscv.T3, int32(m.next()>>34))
	a.Label("alu")
	for i := 0; i < 8; i++ {
		a.ADD(riscv.A1, riscv.A1, riscv.T2)
		a.XOR(riscv.A2, riscv.A2, riscv.T3)
		a.SLLI(riscv.A3, riscv.A1, 3)
		a.ADD(riscv.T3, riscv.T3, riscv.A3)
	}
	a.J("alu")

	if allBusy {
		// s0 = buffer base for this hart, s1 = its end.
		page := m.next() % 64
		a.Label("sweep")
		a.LI64(riscv.S0, sweepBase(page))
		a.SLLI(riscv.T1, riscv.T0, 21)
		a.ADD(riscv.S0, riscv.S0, riscv.T1)
		a.LI(riscv.S1, sweepBytes)
		a.ADD(riscv.S1, riscv.S1, riscv.S0)
		a.LI(riscv.T5, int32(m.next()>>34))
		a.Label("outer")
		a.MV(riscv.S2, riscv.S0)
		a.Label("inner")
		a.LD(riscv.T4, riscv.S2, 0)
		a.ADD(riscv.T4, riscv.T4, riscv.T5)
		a.SD(riscv.T4, riscv.S2, 0)
		a.ADDI(riscv.S2, riscv.S2, 64)
		a.BLTU(riscv.S2, riscv.S1, "inner")
		a.J("outer")
	} else {
		a.Label("park")
		a.WFI()
		a.J("park")
	}
	return a.Bytes()
}

// socRack is one soc-mix simulation.
type socRack struct {
	runner *fame.Runner
	socs   []*soc.SoC
	tor    *switchmodel.Switch
}

func newSoCRack(c socMixConfig, seed uint64, workers int) (*socRack, error) {
	m := mixer(seed)
	busy, err := socProgram(true, c.sweepBytes, &m)
	if err != nil {
		return nil, err
	}
	one, err := socProgram(false, c.sweepBytes, &m)
	if err != nil {
		return nil, err
	}
	rk := &socRack{runner: fame.NewRunner(), tor: switchmodel.New(switchmodel.Config{Name: "tor", Ports: c.blades})}
	if err := rk.runner.SetWorkers(workers); err != nil {
		return nil, err
	}
	for i := 0; i < c.blades; i++ {
		prog := busy
		if i >= c.blades/2 {
			prog = one
		}
		mac := ethernet.MAC(0x0200_0000_0100 + uint64(i))
		s, err := soc.New(soc.QuadCore(fmt.Sprintf("blade%d", i), mac), prog)
		if err != nil {
			return nil, err
		}
		rk.tor.MACTable().Set(mac, i)
		rk.runner.Add(s)
		rk.socs = append(rk.socs, s)
	}
	rk.runner.Add(rk.tor)
	for i, s := range rk.socs {
		if err := rk.runner.Connect(s, 0, rk.tor, i, c.link); err != nil {
			return nil, err
		}
	}
	return rk, nil
}

// save writes runner, blades and switch as one checkpoint stream.
func (rk *socRack) save(w io.Writer) error {
	sw, err := snapshot.NewWriter(w, snapshot.Header{Cycle: uint64(rk.runner.Cycle()), Step: uint64(rk.runner.Step())})
	if err != nil {
		return err
	}
	sw.Section("runner")
	if err := rk.runner.Save(sw); err != nil {
		return err
	}
	for _, s := range rk.socs {
		sw.Section("soc/" + s.Name())
		if err := s.Save(sw); err != nil {
			return err
		}
	}
	sw.Section("switch/tor")
	if err := rk.tor.Save(sw); err != nil {
		return err
	}
	return sw.Close()
}

// load restores every section of a checkpoint written by save.
func (rk *socRack) load(data []byte) error {
	rd, _, err := snapshot.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	byName := make(map[string]snapshot.Snapshotter)
	byName["runner"] = rk.runner
	byName["switch/tor"] = rk.tor
	for _, s := range rk.socs {
		byName["soc/"+s.Name()] = s
	}
	for {
		name, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		c, ok := byName[name]
		if !ok {
			return fmt.Errorf("checkpoint section %q has no component", name)
		}
		if err := c.Restore(rd); err != nil {
			return fmt.Errorf("restore %s: %w", name, err)
		}
		delete(byName, name)
	}
	if len(byName) != 0 {
		return fmt.Errorf("checkpoint is missing %d components", len(byName))
	}
	return nil
}

func (rk *socRack) counters() layerCounters {
	var c layerCounters
	for _, s := range rk.socs {
		c.instret += float64(s.InstretTotal())
		c.sbInstret += float64(s.SuperblockInstret())
		c.partIdle += float64(s.PartialIdleCycles())
		c.skipped += float64(s.SkippedCycles())
		c.socCycles += float64(rk.runner.Cycle())
		c.hartCycles += 4 * float64(rk.runner.Cycle())
		d := s.DRAM().Stats()
		c.dramReads += float64(d.Reads)
		c.dramWrites += float64(d.Writes)
		c.rowHits += float64(d.RowHits)
		c.rowMisses += float64(d.RowMisses)
	}
	return c.plus(switchCounters(rk.tor), 1)
}

func buildSoCMix(c socMixConfig, seed uint64, parallel bool, workers int) (*instance, error) {
	rk, err := newSoCRack(c, seed, workers)
	if err != nil {
		return nil, err
	}
	layers := map[string]string{"tor": layerSwitch}
	for _, s := range rk.socs {
		layers[s.Name()] = layerSoC
	}
	return &instance{
		runner:   rk.runner,
		parallel: parallel,
		layers:   layers,
		save:     rk.save,
		fresh: func() (func([]byte) error, func(io.Writer) error, error) {
			fresh, err := newSoCRack(c, seed, workers)
			if err != nil {
				return nil, nil, err
			}
			return fresh.load, fresh.save, nil
		},
		counters: rk.counters,
	}, nil
}
