package experiments

import (
	"fmt"

	"catsim/internal/dram"
	"catsim/internal/energy"
	"catsim/internal/mitigation"
)

func table1Report() *Report {
	g := dram.Default2Channel()
	t := dram.DDR3_1600()
	return &Report{
		Name:     "table1",
		Title:    "Table I: system configuration",
		NoHeader: true,
		Columns: []Column{
			{Name: "item", Type: "string"},
			{Name: "value", Type: "string"},
		},
		Rows: []Row{
			{"Processor", fmt.Sprintf("Two 3.2 GHz cores, memory bus %d MHz, %d outstanding reads/core", t.BusMHz, 8)},
			{"Memory controller", "closed-page, posted writes, address mapping rw:rk:bk:ch:col:offset"},
			{"DRAM", fmt.Sprintf("%d channels, %d rank/channel, %d banks/rank, %dK rows/bank, %d B lines (%.0f GB total)",
				g.Channels, g.RanksPerCh, g.BanksPerRk, g.RowsPerBank/1024, g.LineBytes,
				float64(g.TotalBytes())/(1<<30))},
			{"Timing (bus cycles)", fmt.Sprintf("tRCD=%d tRP=%d CL=%d tRAS=%d tRC=%d tRFC=%d tREFI=%d",
				t.TRCD, t.TRP, t.TCAS, t.TRAS, t.TRC, t.TRFC, t.TREFI)},
		},
	}
}

// Table2Row is one row of the reproduced Table II.
type Table2Row struct {
	M     int
	DRCAT energy.SchemeHW
	PRCAT energy.SchemeHW
	SCA   energy.SchemeHW
}

func table2Report() ([]Table2Row, *Report, error) {
	var rows []Table2Row
	rep := &Report{
		Name:  "table2",
		Title: "Table II: hardware energy (per bank) and area",
		Columns: []Column{
			{Name: "M", Type: "int", Format: "%d"},
			{Name: "drcat_dyn_nj", Header: "DRCAT dyn nJ", Type: "float", Format: "%.2e"},
			{Name: "drcat_static_nj", Header: "DRCAT static nJ", Type: "float", Format: "%.2e"},
			{Name: "drcat_mm2", Header: "DRCAT mm2", Type: "float", Format: "%.2e"},
			{Name: "prcat_dyn_nj", Header: "PRCAT dyn nJ", Type: "float", Format: "%.2e"},
			{Name: "prcat_static_nj", Header: "PRCAT static nJ", Type: "float", Format: "%.2e"},
			{Name: "prcat_mm2", Header: "PRCAT mm2", Type: "float", Format: "%.2e"},
			{Name: "sca_dyn_nj", Header: "SCA dyn nJ", Type: "float", Format: "%.2e"},
			{Name: "sca_static_nj", Header: "SCA static nJ", Type: "float", Format: "%.2e"},
			{Name: "sca_mm2", Header: "SCA mm2", Type: "float", Format: "%.2e"},
		},
	}
	for m := 32; m <= 512; m *= 2 {
		dr, err := energy.TableII(mitigation.KindDRCAT, m)
		if err != nil {
			return nil, nil, err
		}
		pr, err := energy.TableII(mitigation.KindPRCAT, m)
		if err != nil {
			return nil, nil, err
		}
		sc, err := energy.TableII(mitigation.KindSCA, m)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Table2Row{M: m, DRCAT: dr, PRCAT: pr, SCA: sc})
		rep.Rows = append(rep.Rows, Row{
			m,
			dr.DynamicNJPerAccess, dr.StaticNJPerInterval, dr.AreaMM2,
			pr.DynamicNJPerAccess, pr.StaticNJPerInterval, pr.AreaMM2,
			sc.DynamicNJPerAccess, sc.StaticNJPerInterval, sc.AreaMM2,
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"PRNG\tarea %.3e mm2\tthroughput %.1f Gbps\tpower %.0f mW\teff %.2e nJ/b\teng_PRNG %.4e nJ (9 b/access)",
		energy.PRNGAreaMM2, energy.PRNGThroughputGbps, energy.PRNGPowerMW,
		energy.PRNGEfficiencyNJPerBit, energy.PRNGEnergyPerActivationNJ))
	return rows, rep, nil
}
