//! The paper's published numbers (Tables I–III), for side-by-side reporting.

/// One row of the paper's Table I (partition results at K = 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableOneRow {
    /// Circuit name as printed.
    pub circuit: &'static str,
    /// `# Gates`.
    pub gates: usize,
    /// `# Connections`.
    pub connections: usize,
    /// `d ≤ 1` percentage.
    pub d1_pct: f64,
    /// `d ≤ 2` percentage.
    pub d2_pct: f64,
    /// `B_cir` in mA.
    pub b_cir_ma: f64,
    /// `B_max` in mA.
    pub b_max_ma: f64,
    /// `I_comp` percentage.
    pub i_comp_pct: f64,
    /// `A_cir` in mm².
    pub a_cir_mm2: f64,
    /// `A_max` in mm².
    pub a_max_mm2: f64,
    /// `A_FS` percentage.
    pub a_fs_pct: f64,
}

/// The paper's Table I, all 13 rows, in print order.
pub const TABLE_ONE: [TableOneRow; 13] = [
    TableOneRow {
        circuit: "KSA4",
        gates: 93,
        connections: 118,
        d1_pct: 74.6,
        d2_pct: 97.5,
        b_cir_ma: 80.089,
        b_max_ma: 17.50,
        i_comp_pct: 9.24,
        a_cir_mm2: 0.4512,
        a_max_mm2: 0.0972,
        a_fs_pct: 7.71,
    },
    TableOneRow {
        circuit: "KSA8",
        gates: 252,
        connections: 320,
        d1_pct: 70.3,
        d2_pct: 94.4,
        b_cir_ma: 216.72,
        b_max_ma: 45.27,
        i_comp_pct: 4.43,
        a_cir_mm2: 1.2192,
        a_max_mm2: 0.2520,
        a_fs_pct: 3.35,
    },
    TableOneRow {
        circuit: "KSA16",
        gates: 650,
        connections: 826,
        d1_pct: 66.5,
        d2_pct: 88.7,
        b_cir_ma: 557.66,
        b_max_ma: 118.09,
        i_comp_pct: 5.88,
        a_cir_mm2: 3.1392,
        a_max_mm2: 0.6600,
        a_fs_pct: 5.12,
    },
    TableOneRow {
        circuit: "KSA32",
        gates: 1592,
        connections: 2029,
        d1_pct: 64.4,
        d2_pct: 85.9,
        b_cir_ma: 1362.55,
        b_max_ma: 304.07,
        i_comp_pct: 11.58,
        a_cir_mm2: 7.6800,
        a_max_mm2: 1.7028,
        a_fs_pct: 10.86,
    },
    TableOneRow {
        circuit: "MULT4",
        gates: 254,
        connections: 310,
        d1_pct: 73.2,
        d2_pct: 93.2,
        b_cir_ma: 222.03,
        b_max_ma: 47.70,
        i_comp_pct: 7.42,
        a_cir_mm2: 1.2192,
        a_max_mm2: 0.2616,
        a_fs_pct: 7.28,
    },
    TableOneRow {
        circuit: "MULT8",
        gates: 1374,
        connections: 1678,
        d1_pct: 63.6,
        d2_pct: 85.6,
        b_cir_ma: 1201.32,
        b_max_ma: 256.85,
        i_comp_pct: 6.90,
        a_cir_mm2: 6.5952,
        a_max_mm2: 1.4004,
        a_fs_pct: 6.17,
    },
    TableOneRow {
        circuit: "ID4",
        gates: 553,
        connections: 678,
        d1_pct: 71.1,
        d2_pct: 91.4,
        b_cir_ma: 467.00,
        b_max_ma: 100.29,
        i_comp_pct: 6.69,
        a_cir_mm2: 2.6796,
        a_max_mm2: 0.5700,
        a_fs_pct: 6.36,
    },
    TableOneRow {
        circuit: "ID8",
        gates: 3209,
        connections: 3705,
        d1_pct: 58.2,
        d2_pct: 81.6,
        b_cir_ma: 2783.89,
        b_max_ma: 622.39,
        i_comp_pct: 11.78,
        a_cir_mm2: 15.5400,
        a_max_mm2: 3.4860,
        a_fs_pct: 12.16,
    },
    TableOneRow {
        circuit: "C432",
        gates: 1216,
        connections: 1434,
        d1_pct: 65.0,
        d2_pct: 87.5,
        b_cir_ma: 1045.17,
        b_max_ma: 222.31,
        i_comp_pct: 6.35,
        a_cir_mm2: 5.9448,
        a_max_mm2: 1.2792,
        a_fs_pct: 7.59,
    },
    TableOneRow {
        circuit: "C499",
        gates: 991,
        connections: 1318,
        d1_pct: 63.5,
        d2_pct: 86.3,
        b_cir_ma: 834.92,
        b_max_ma: 178.17,
        i_comp_pct: 6.70,
        a_cir_mm2: 4.8060,
        a_max_mm2: 1.0212,
        a_fs_pct: 6.24,
    },
    TableOneRow {
        circuit: "C1355",
        gates: 1046,
        connections: 1367,
        d1_pct: 61.8,
        d2_pct: 85.4,
        b_cir_ma: 883.35,
        b_max_ma: 192.41,
        i_comp_pct: 8.97,
        a_cir_mm2: 5.0808,
        a_max_mm2: 1.1076,
        a_fs_pct: 9.00,
    },
    TableOneRow {
        circuit: "C1908",
        gates: 1695,
        connections: 2095,
        d1_pct: 60.0,
        d2_pct: 85.0,
        b_cir_ma: 1447.03,
        b_max_ma: 328.53,
        i_comp_pct: 13.52,
        a_cir_mm2: 8.2536,
        a_max_mm2: 1.8804,
        a_fs_pct: 13.91,
    },
    TableOneRow {
        circuit: "C3540",
        gates: 3792,
        connections: 4927,
        d1_pct: 54.0,
        d2_pct: 77.7,
        b_cir_ma: 3193.23,
        b_max_ma: 670.01,
        i_comp_pct: 4.91,
        a_cir_mm2: 18.5556,
        a_max_mm2: 3.8784,
        a_fs_pct: 4.51,
    },
];

/// One row of the paper's Table II (KSA4 swept over K).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableTwoRow {
    /// Number of ground planes.
    pub k: usize,
    /// `d ≤ 1` percentage.
    pub d1_pct: f64,
    /// `d ≤ ⌊K/2⌋` percentage.
    pub d_half_k_pct: f64,
    /// `B_max` in mA.
    pub b_max_ma: f64,
    /// `I_comp` percentage.
    pub i_comp_pct: f64,
    /// `A_max` in mm².
    pub a_max_mm2: f64,
    /// `A_FS` percentage.
    pub a_fs_pct: f64,
}

/// The paper's Table II (KSA4, K = 5..10).
pub const TABLE_TWO: [TableTwoRow; 6] = [
    TableTwoRow {
        k: 5,
        d1_pct: 74.6,
        d_half_k_pct: 97.5,
        b_max_ma: 17.50,
        i_comp_pct: 9.24,
        a_max_mm2: 0.0972,
        a_fs_pct: 7.71,
    },
    TableTwoRow {
        k: 6,
        d1_pct: 64.4,
        d_half_k_pct: 94.9,
        b_max_ma: 14.40,
        i_comp_pct: 7.88,
        a_max_mm2: 0.0840,
        a_fs_pct: 11.70,
    },
    TableTwoRow {
        k: 7,
        d1_pct: 53.4,
        d_half_k_pct: 89.8,
        b_max_ma: 12.45,
        i_comp_pct: 8.79,
        a_max_mm2: 0.0696,
        a_fs_pct: 7.98,
    },
    TableTwoRow {
        k: 8,
        d1_pct: 45.8,
        d_half_k_pct: 95.8,
        b_max_ma: 11.16,
        i_comp_pct: 11.49,
        a_max_mm2: 0.0648,
        a_fs_pct: 14.89,
    },
    TableTwoRow {
        k: 9,
        d1_pct: 38.1,
        d_half_k_pct: 83.9,
        b_max_ma: 10.24,
        i_comp_pct: 15.12,
        a_max_mm2: 0.0576,
        a_fs_pct: 14.89,
    },
    TableTwoRow {
        k: 10,
        d1_pct: 38.1,
        d_half_k_pct: 90.7,
        b_max_ma: 9.69,
        i_comp_pct: 21.64,
        a_max_mm2: 0.0552,
        a_fs_pct: 22.34,
    },
];

/// One row of the paper's Table III (minimum-K under a 100 mA cap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableThreeRow {
    /// Circuit name as printed.
    pub circuit: &'static str,
    /// Lower bound `K_LB = ⌈B_cir/100 mA⌉`.
    pub k_lb: usize,
    /// Plane count the paper's partitioner needed.
    pub k_res: usize,
    /// `d ≤ ⌊K/2⌋` percentage.
    pub d_half_k_pct: f64,
    /// `B_max` in mA.
    pub b_max_ma: f64,
    /// `I_comp` percentage.
    pub i_comp_pct: f64,
    /// `A_max` in mm².
    pub a_max_mm2: f64,
    /// `A_FS` percentage.
    pub a_fs_pct: f64,
}

/// The paper's Table III (B_max ≤ 100 mA; KSA4 omitted as in the paper).
pub const TABLE_THREE: [TableThreeRow; 12] = [
    TableThreeRow {
        circuit: "KSA8",
        k_lb: 3,
        k_res: 3,
        d_half_k_pct: 95.9,
        b_max_ma: 78.31,
        i_comp_pct: 8.40,
        a_max_mm2: 0.4476,
        a_fs_pct: 10.14,
    },
    TableThreeRow {
        circuit: "KSA16",
        k_lb: 6,
        k_res: 7,
        d_half_k_pct: 84.9,
        b_max_ma: 93.37,
        i_comp_pct: 17.20,
        a_max_mm2: 0.5208,
        a_fs_pct: 16.13,
    },
    TableThreeRow {
        circuit: "KSA32",
        k_lb: 14,
        k_res: 17,
        d_half_k_pct: 77.4,
        b_max_ma: 99.98,
        i_comp_pct: 24.74,
        a_max_mm2: 0.5628,
        a_fs_pct: 24.58,
    },
    TableThreeRow {
        circuit: "MULT4",
        k_lb: 3,
        k_res: 3,
        d_half_k_pct: 91.0,
        b_max_ma: 79.34,
        i_comp_pct: 7.20,
        a_max_mm2: 0.4404,
        a_fs_pct: 8.37,
    },
    TableThreeRow {
        circuit: "MULT8",
        k_lb: 13,
        k_res: 15,
        d_half_k_pct: 77.5,
        b_max_ma: 96.78,
        i_comp_pct: 20.87,
        a_max_mm2: 0.5340,
        a_fs_pct: 21.45,
    },
    TableThreeRow {
        circuit: "ID4",
        k_lb: 5,
        k_res: 6,
        d_half_k_pct: 92.6,
        b_max_ma: 87.38,
        i_comp_pct: 11.55,
        a_max_mm2: 0.4944,
        a_fs_pct: 10.70,
    },
    TableThreeRow {
        circuit: "ID8",
        k_lb: 28,
        k_res: 40,
        d_half_k_pct: 75.3,
        b_max_ma: 99.65,
        i_comp_pct: 43.17,
        a_max_mm2: 0.5580,
        a_fs_pct: 43.63,
    },
    TableThreeRow {
        circuit: "C432",
        k_lb: 11,
        k_res: 14,
        d_half_k_pct: 83.0,
        b_max_ma: 87.15,
        i_comp_pct: 16.73,
        a_max_mm2: 0.5040,
        a_fs_pct: 18.69,
    },
    TableThreeRow {
        circuit: "C499",
        k_lb: 9,
        k_res: 11,
        d_half_k_pct: 79.6,
        b_max_ma: 91.42,
        i_comp_pct: 20.44,
        a_max_mm2: 0.5340,
        a_fs_pct: 22.22,
    },
    TableThreeRow {
        circuit: "C1355",
        k_lb: 9,
        k_res: 11,
        d_half_k_pct: 80.7,
        b_max_ma: 96.77,
        i_comp_pct: 20.51,
        a_max_mm2: 0.5628,
        a_fs_pct: 21.85,
    },
    TableThreeRow {
        circuit: "C1908",
        k_lb: 15,
        k_res: 17,
        d_half_k_pct: 78.2,
        b_max_ma: 97.78,
        i_comp_pct: 14.88,
        a_max_mm2: 0.5628,
        a_fs_pct: 15.92,
    },
    TableThreeRow {
        circuit: "C3540",
        k_lb: 32,
        k_res: 50,
        d_half_k_pct: 77.1,
        b_max_ma: 92.61,
        i_comp_pct: 45.01,
        a_max_mm2: 0.5400,
        a_fs_pct: 45.51,
    },
];

/// Finds a Table I row by circuit name (case-sensitive, as printed).
pub fn table_one_row(circuit: &str) -> Option<&'static TableOneRow> {
    TABLE_ONE.iter().find(|r| r.circuit == circuit)
}

/// Finds a Table III row by circuit name.
pub fn table_three_row(circuit: &str) -> Option<&'static TableThreeRow> {
    TABLE_THREE.iter().find(|r| r.circuit == circuit)
}

/// Headline averages the paper quotes in §V, derived from the tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperAverages {
    /// Mean `d ≤ 1` over Table I (paper: 65.1 %).
    pub d1_pct: f64,
    /// Mean `d ≤ 2` over Table I (paper: 87.7 %).
    pub d2_pct: f64,
    /// Mean `I_comp` over Table I (paper: 8.0 %).
    pub i_comp_pct: f64,
    /// Mean `A_FS` over Table I (paper: 7.7 %).
    pub a_fs_pct: f64,
}

/// Computes the Table I averages (which should match the §V quotes).
pub fn table_one_averages() -> PaperAverages {
    let n = TABLE_ONE.len() as f64;
    PaperAverages {
        d1_pct: TABLE_ONE.iter().map(|r| r.d1_pct).sum::<f64>() / n,
        d2_pct: TABLE_ONE.iter().map(|r| r.d2_pct).sum::<f64>() / n,
        i_comp_pct: TABLE_ONE.iter().map(|r| r.i_comp_pct).sum::<f64>() / n,
        a_fs_pct: TABLE_ONE.iter().map(|r| r.a_fs_pct).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_has_13_circuits() {
        assert_eq!(TABLE_ONE.len(), 13);
        assert_eq!(TABLE_ONE[0].circuit, "KSA4");
        assert_eq!(TABLE_ONE[12].circuit, "C3540");
    }

    #[test]
    fn quoted_averages_match_the_tables() {
        // §V: "the percentage of the number of connections with distance
        // less than 1 and 2 are 65.1% and 87.7%" and "the average I_comp and
        // the average A_FS … are only 8.0% and 7.7%".
        let avg = table_one_averages();
        assert!((avg.d1_pct - 65.1).abs() < 0.1, "d1 avg {}", avg.d1_pct);
        assert!((avg.d2_pct - 87.7).abs() < 0.1, "d2 avg {}", avg.d2_pct);
        assert!(
            (avg.i_comp_pct - 8.0).abs() < 0.15,
            "icomp avg {}",
            avg.i_comp_pct
        );
        assert!(
            (avg.a_fs_pct - 7.7).abs() < 0.15,
            "afs avg {}",
            avg.a_fs_pct
        );
    }

    #[test]
    fn table_one_rows_are_internally_consistent() {
        // Identity from eq. 11: I_comp% = (K·B_max − B_cir)/B_cir with K=5.
        // Every row closes to within rounding except ID4, whose printed
        // I_comp (6.69 %) disagrees with its own B_max/B_cir (derived
        // 7.38 %) — an inconsistency in the paper itself, so the tolerance
        // here is 0.8.
        for row in &TABLE_ONE {
            let derived = 100.0 * (5.0 * row.b_max_ma - row.b_cir_ma) / row.b_cir_ma;
            assert!(
                (derived - row.i_comp_pct).abs() < 0.8,
                "{}: derived {derived:.2} vs printed {}",
                row.circuit,
                row.i_comp_pct
            );
            let derived_fs = 100.0 * (5.0 * row.a_max_mm2 - row.a_cir_mm2) / row.a_cir_mm2;
            assert!(
                (derived_fs - row.a_fs_pct).abs() < 0.35,
                "{}: derived A_FS {derived_fs:.2} vs printed {}",
                row.circuit,
                row.a_fs_pct
            );
        }
    }

    #[test]
    fn table_two_b_max_decreases_with_k() {
        for pair in TABLE_TWO.windows(2) {
            assert!(pair[1].b_max_ma < pair[0].b_max_ma);
            assert!(pair[1].d1_pct <= pair[0].d1_pct);
        }
    }

    #[test]
    fn table_three_k_res_at_least_k_lb() {
        for row in &TABLE_THREE {
            assert!(row.k_res >= row.k_lb, "{}", row.circuit);
            assert!(row.b_max_ma <= 100.0, "{}", row.circuit);
        }
    }

    #[test]
    fn table_three_k_lb_matches_table_one_b_cir() {
        for row in &TABLE_THREE {
            let t1 = table_one_row(row.circuit).expect("circuit in Table I");
            let k_lb = (t1.b_cir_ma / 100.0).ceil() as usize;
            assert_eq!(k_lb, row.k_lb, "{}", row.circuit);
        }
    }

    #[test]
    fn lookups_work() {
        assert!(table_one_row("KSA8").is_some());
        assert!(table_one_row("KSA5").is_none());
        assert!(table_three_row("C3540").is_some());
        assert!(
            table_three_row("KSA4").is_none(),
            "KSA4 absent from Table III"
        );
    }

    #[test]
    fn table_two_average_d_half_k() {
        // §V: "On average, 92.1% connections have distance less than half
        // the number of ground planes."
        let avg = TABLE_TWO.iter().map(|r| r.d_half_k_pct).sum::<f64>() / TABLE_TWO.len() as f64;
        assert!((avg - 92.1).abs() < 0.1, "avg {avg}");
    }
}
