//! A TPC-H substrate (§8.3): dbgen-style generators for all eight tables
//! and pruning skeletons of the 22 queries — each skeleton reproduces the
//! query's scans, selective predicates, and join structure, which is what
//! determines partition pruning.
//!
//! As in the paper's Figure 13 setup, tables can be clustered on
//! `l_shipdate` / `o_orderdate` (default TPC-H order otherwise), and
//! pruning is measured per query as the fraction of partitions never
//! processed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use snowprune_expr::dsl::{col, lit};
use snowprune_plan::{JoinType, Plan, PlanBuilder};
use snowprune_storage::{Catalog, Field, Layout, Schema, TableBuilder};
use snowprune_types::{ScalarType, Value};

/// Days since the Unix epoch for a civil date (Howard Hinnant's algorithm).
pub fn date(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe as i32 - 719_468
}

fn dlit(y: i32, m: u32, d: u32) -> snowprune_expr::Expr {
    lit(Value::Date(date(y, m, d)))
}

/// TPC-H generation options.
#[derive(Clone, Debug)]
pub struct TpchConfig {
    /// Scale factor (1.0 = the standard 6M-lineitem scale).
    pub scale: f64,
    /// Rows per micro-partition (scaled-down stand-in for 50-500 MB).
    pub rows_per_partition: usize,
    /// Cluster lineitem by `l_shipdate` and orders by `o_orderdate`
    /// (the Figure 13 configuration); `false` keeps dbgen order.
    pub clustered: bool,
    /// RNG seed for data generation.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 0.02,
            rows_per_partition: 1500,
            clustered: true,
            seed: 19_920_101,
        }
    }
}

/// First order date in the generated data (year, month, day).
pub const START: (i32, u32, u32) = (1992, 1, 1);
/// Last order date in the generated data (year, month, day).
pub const END: (i32, u32, u32) = (1998, 12, 31);

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
const INSTRUCTIONS: [&str; 4] = [
    "COLLECT COD",
    "DELIVER IN PERSON",
    "NONE",
    "TAKE BACK RETURN",
];
const CONTAINERS: [&str; 8] = [
    "SM CASE",
    "SM BOX",
    "MED BOX",
    "MED BAG",
    "LG CASE",
    "LG BOX",
    "JUMBO PACK",
    "WRAP JAR",
];
const TYPE_A: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_B: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_C: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const COLORS: [&str; 10] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "forest",
    "green",
    "khaki",
    "lemon",
    "magenta",
];

/// Generate the eight TPC-H tables into a fresh catalog.
pub fn generate_tpch(cfg: &TpchConfig) -> Catalog {
    let catalog = Catalog::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sf = cfg.scale;
    let n_orders = (1_500_000.0 * sf) as i64;
    let n_customers = ((150_000.0 * sf) as i64).max(10);
    let n_parts = ((200_000.0 * sf) as i64).max(10);
    let n_suppliers = ((10_000.0 * sf) as i64).max(5);
    let start = date(START.0, START.1, START.2);
    let end = date(END.0, END.1, END.2);
    // Low-cardinality columns draw from vocabularies built once: a row
    // clones a shared string instead of allocating its own.
    let segments = SEGMENTS.map(Value::from);
    let priorities = PRIORITIES.map(Value::from);
    let shipmodes = SHIPMODES.map(Value::from);
    let instructions = INSTRUCTIONS.map(Value::from);
    let containers = CONTAINERS.map(Value::from);
    let order_status = ["F", "O", "P"].map(Value::from);
    let return_flags = ["R", "A", "N"].map(Value::from);
    // Indexed by `ship > 1995-06-17`.
    let line_status = ["F", "O"].map(Value::from);

    // region + nation (fixed size).
    let mut region = TableBuilder::new("region", region_schema()).target_rows_per_partition(5);
    for (i, name) in ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
        .iter()
        .enumerate()
    {
        region.push_row(vec![Value::Int(i as i64), Value::Str((*name).into())]);
    }
    catalog.register(region.build());
    let mut nation = TableBuilder::new("nation", nation_schema()).target_rows_per_partition(25);
    for i in 0..25i64 {
        nation.push_row(vec![
            Value::Int(i),
            Value::from(format!("NATION{i:02}")),
            Value::Int(i % 5),
        ]);
    }
    catalog.register(nation.build());

    // supplier.
    let mut supplier = TableBuilder::new("supplier", supplier_schema())
        .target_rows_per_partition(cfg.rows_per_partition);
    for i in 0..n_suppliers {
        supplier.push_row(vec![
            Value::Int(i),
            Value::from(format!("Supplier#{i:09}")),
            Value::Int(rng.random_range(0..25)),
            Value::Float(rng.random_range(-999.99..9999.99)),
        ]);
    }
    catalog.register(supplier.build());

    // customer.
    let mut customer = TableBuilder::new("customer", customer_schema())
        .target_rows_per_partition(cfg.rows_per_partition);
    for i in 0..n_customers {
        customer.push_row(vec![
            Value::Int(i),
            Value::from(format!("Customer#{i:09}")),
            Value::Int(rng.random_range(0..25)),
            segments[rng.random_range(0..5usize)].clone(),
            Value::Float(rng.random_range(-999.99..9999.99)),
            Value::from(format!(
                "{}-{:03}-{:03}-{:04}",
                rng.random_range(10..35),
                rng.random_range(100..1000),
                rng.random_range(100..1000),
                rng.random_range(1000..10000)
            )),
        ]);
    }
    catalog.register(customer.build());

    // part.
    let mut part =
        TableBuilder::new("part", part_schema()).target_rows_per_partition(cfg.rows_per_partition);
    for i in 0..n_parts {
        let ty = format!(
            "{} {} {}",
            TYPE_A[rng.random_range(0..TYPE_A.len())],
            TYPE_B[rng.random_range(0..TYPE_B.len())],
            TYPE_C[rng.random_range(0..TYPE_C.len())]
        );
        let name = format!(
            "{} {}",
            COLORS[rng.random_range(0..COLORS.len())],
            COLORS[rng.random_range(0..COLORS.len())]
        );
        part.push_row(vec![
            Value::Int(i),
            Value::from(name),
            Value::from(format!(
                "Brand#{}{}",
                rng.random_range(1..6),
                rng.random_range(1..6)
            )),
            Value::from(ty),
            Value::Int(rng.random_range(1..51)),
            containers[rng.random_range(0..CONTAINERS.len())].clone(),
            Value::Float(900.0 + (i % 1000) as f64 / 10.0),
        ]);
    }
    catalog.register(part.build());

    // partsupp.
    let mut partsupp = TableBuilder::new("partsupp", partsupp_schema())
        .target_rows_per_partition(cfg.rows_per_partition);
    for i in 0..n_parts {
        for j in 0..4i64 {
            partsupp.push_row(vec![
                Value::Int(i),
                Value::Int((i + j * (n_suppliers / 4 + 1)) % n_suppliers.max(1)),
                Value::Int(rng.random_range(1..10_000)),
                Value::Float(rng.random_range(1.0..1000.0)),
            ]);
        }
    }
    catalog.register(partsupp.build());

    // orders + lineitem.
    let orders_layout = if cfg.clustered {
        Layout::ClusterBy(vec!["o_orderdate".into()])
    } else {
        Layout::Natural
    };
    let lineitem_layout = if cfg.clustered {
        Layout::ClusterBy(vec!["l_shipdate".into()])
    } else {
        Layout::Natural
    };
    let mut orders = TableBuilder::new("orders", orders_schema())
        .target_rows_per_partition(cfg.rows_per_partition)
        .layout(orders_layout);
    let mut lineitem = TableBuilder::new("lineitem", lineitem_schema())
        .target_rows_per_partition(cfg.rows_per_partition)
        .layout(lineitem_layout);
    for ok in 0..n_orders {
        let odate = rng.random_range(start..end - 151);
        let status = order_status[rng.random_range(0..3usize)].clone();
        orders.push_row(vec![
            Value::Int(ok),
            Value::Int(rng.random_range(0..n_customers)),
            status,
            Value::Float(rng.random_range(1000.0..500_000.0)),
            Value::Date(odate),
            priorities[rng.random_range(0..5usize)].clone(),
            // Clerk ids span 0..100000 so prefix predicates like
            // `Clerk#00000%` select ~10% rather than everything.
            Value::from(format!("Clerk#{:09}", rng.random_range(0..100_000))),
        ]);
        let lines = rng.random_range(1..8);
        for _ in 0..lines {
            let ship = odate + rng.random_range(1..122);
            let commit = odate + rng.random_range(30..91);
            let receipt = ship + rng.random_range(1..31);
            lineitem.push_row(vec![
                Value::Int(ok),
                Value::Int(rng.random_range(0..n_parts)),
                Value::Int(rng.random_range(0..n_suppliers)),
                Value::Int(rng.random_range(1..51)),
                Value::Float(rng.random_range(900.0..105_000.0)),
                Value::Float(rng.random_range(0..11) as f64 / 100.0),
                Value::Float(rng.random_range(0..9) as f64 / 100.0),
                return_flags[rng.random_range(0..3usize)].clone(),
                line_status[usize::from(ship > date(1995, 6, 17))].clone(),
                Value::Date(ship),
                Value::Date(commit),
                Value::Date(receipt),
                instructions[rng.random_range(0..4usize)].clone(),
                shipmodes[rng.random_range(0..7usize)].clone(),
            ]);
        }
    }
    catalog.register(orders.build());
    catalog.register(lineitem.build());
    catalog
}

/// The `lineitem` table schema (the pruning-relevant columns).
pub fn lineitem_schema() -> Schema {
    Schema::new(vec![
        Field::new("l_orderkey", ScalarType::Int),
        Field::new("l_partkey", ScalarType::Int),
        Field::new("l_suppkey", ScalarType::Int),
        Field::new("l_quantity", ScalarType::Int),
        Field::new("l_extendedprice", ScalarType::Float),
        Field::new("l_discount", ScalarType::Float),
        Field::new("l_tax", ScalarType::Float),
        Field::new("l_returnflag", ScalarType::Str),
        Field::new("l_linestatus", ScalarType::Str),
        Field::new("l_shipdate", ScalarType::Date),
        Field::new("l_commitdate", ScalarType::Date),
        Field::new("l_receiptdate", ScalarType::Date),
        Field::new("l_shipinstruct", ScalarType::Str),
        Field::new("l_shipmode", ScalarType::Str),
    ])
}

/// The `orders` table schema.
pub fn orders_schema() -> Schema {
    Schema::new(vec![
        Field::new("o_orderkey", ScalarType::Int),
        Field::new("o_custkey", ScalarType::Int),
        Field::new("o_orderstatus", ScalarType::Str),
        Field::new("o_totalprice", ScalarType::Float),
        Field::new("o_orderdate", ScalarType::Date),
        Field::new("o_orderpriority", ScalarType::Str),
        Field::new("o_clerk", ScalarType::Str),
    ])
}

/// The `customer` table schema.
pub fn customer_schema() -> Schema {
    Schema::new(vec![
        Field::new("c_custkey", ScalarType::Int),
        Field::new("c_name", ScalarType::Str),
        Field::new("c_nationkey", ScalarType::Int),
        Field::new("c_mktsegment", ScalarType::Str),
        Field::new("c_acctbal", ScalarType::Float),
        Field::new("c_phone", ScalarType::Str),
    ])
}

/// The `part` table schema.
pub fn part_schema() -> Schema {
    Schema::new(vec![
        Field::new("p_partkey", ScalarType::Int),
        Field::new("p_name", ScalarType::Str),
        Field::new("p_brand", ScalarType::Str),
        Field::new("p_type", ScalarType::Str),
        Field::new("p_size", ScalarType::Int),
        Field::new("p_container", ScalarType::Str),
        Field::new("p_retailprice", ScalarType::Float),
    ])
}

/// The `supplier` table schema.
pub fn supplier_schema() -> Schema {
    Schema::new(vec![
        Field::new("s_suppkey", ScalarType::Int),
        Field::new("s_name", ScalarType::Str),
        Field::new("s_nationkey", ScalarType::Int),
        Field::new("s_acctbal", ScalarType::Float),
    ])
}

/// The `partsupp` table schema.
pub fn partsupp_schema() -> Schema {
    Schema::new(vec![
        Field::new("ps_partkey", ScalarType::Int),
        Field::new("ps_suppkey", ScalarType::Int),
        Field::new("ps_availqty", ScalarType::Int),
        Field::new("ps_supplycost", ScalarType::Float),
    ])
}

/// The `nation` table schema.
pub fn nation_schema() -> Schema {
    Schema::new(vec![
        Field::new("n_nationkey", ScalarType::Int),
        Field::new("n_name", ScalarType::Str),
        Field::new("n_regionkey", ScalarType::Int),
    ])
}

/// The `region` table schema.
pub fn region_schema() -> Schema {
    Schema::new(vec![
        Field::new("r_regionkey", ScalarType::Int),
        Field::new("r_name", ScalarType::Str),
    ])
}

fn li() -> PlanBuilder {
    PlanBuilder::scan("lineitem", lineitem_schema())
}
fn ord() -> PlanBuilder {
    PlanBuilder::scan("orders", orders_schema())
}
fn cust() -> PlanBuilder {
    PlanBuilder::scan("customer", customer_schema())
}
fn prt() -> PlanBuilder {
    PlanBuilder::scan("part", part_schema())
}
fn supp() -> PlanBuilder {
    PlanBuilder::scan("supplier", supplier_schema())
}
fn psupp() -> PlanBuilder {
    PlanBuilder::scan("partsupp", partsupp_schema())
}

/// The pruning skeletons of TPC-H Q1–Q22: scans, selective predicates, and
/// join structure (build = left input). Aggregations that do not affect
/// pruning are omitted.
pub fn tpch_query(q: usize) -> Plan {
    match q {
        1 => li().filter(col("l_shipdate").le(dlit(1998, 9, 2))).build(),
        2 => prt()
            .filter(
                col("p_size")
                    .eq(lit(15i64))
                    .and(col("p_type").like("%BRASS")),
            )
            .join(psupp(), "p_partkey", "ps_partkey", JoinType::Inner)
            .build(),
        3 => cust()
            .filter(col("c_mktsegment").eq(lit("BUILDING")))
            .join(
                ord().filter(col("o_orderdate").lt(dlit(1995, 3, 15))),
                "c_custkey",
                "o_custkey",
                JoinType::Inner,
            )
            .join(
                li().filter(col("l_shipdate").gt(dlit(1995, 3, 15))),
                "o_orderkey",
                "l_orderkey",
                JoinType::Inner,
            )
            .build(),
        4 => ord()
            .filter(
                col("o_orderdate")
                    .ge(dlit(1993, 7, 1))
                    .and(col("o_orderdate").lt(dlit(1993, 10, 1))),
            )
            .join(
                li().filter(col("l_commitdate").lt(col("l_receiptdate"))),
                "o_orderkey",
                "l_orderkey",
                JoinType::Inner,
            )
            .build(),
        5 => ord()
            .filter(
                col("o_orderdate")
                    .ge(dlit(1994, 1, 1))
                    .and(col("o_orderdate").lt(dlit(1995, 1, 1))),
            )
            .join(cust(), "o_custkey", "c_custkey", JoinType::Inner)
            .join(li(), "o_orderkey", "l_orderkey", JoinType::Inner)
            .build(),
        6 => li()
            .filter(
                col("l_shipdate")
                    .ge(dlit(1994, 1, 1))
                    .and(col("l_shipdate").lt(dlit(1995, 1, 1)))
                    .and(col("l_discount").between(lit(0.05), lit(0.07)))
                    .and(col("l_quantity").lt(lit(24i64))),
            )
            .build(),
        7 => supp()
            .filter(col("s_nationkey").in_list(vec![Value::Int(7), Value::Int(8)]))
            .join(
                li().filter(
                    col("l_shipdate")
                        .ge(dlit(1995, 1, 1))
                        .and(col("l_shipdate").le(dlit(1996, 12, 31))),
                ),
                "s_suppkey",
                "l_suppkey",
                JoinType::Inner,
            )
            .build(),
        8 => prt()
            .filter(col("p_type").eq(lit("ECONOMY ANODIZED STEEL")))
            .join(li(), "p_partkey", "l_partkey", JoinType::Inner)
            .join(
                ord().filter(
                    col("o_orderdate")
                        .ge(dlit(1995, 1, 1))
                        .and(col("o_orderdate").le(dlit(1996, 12, 31))),
                ),
                "l_orderkey",
                "o_orderkey",
                JoinType::Inner,
            )
            .build(),
        9 => prt()
            .filter(col("p_name").like("%green%"))
            .join(li(), "p_partkey", "l_partkey", JoinType::Inner)
            .build(),
        10 => ord()
            .filter(
                col("o_orderdate")
                    .ge(dlit(1993, 10, 1))
                    .and(col("o_orderdate").lt(dlit(1994, 1, 1))),
            )
            .join(
                li().filter(col("l_returnflag").eq(lit("R"))),
                "o_orderkey",
                "l_orderkey",
                JoinType::Inner,
            )
            .join(cust(), "o_custkey", "c_custkey", JoinType::Inner)
            .build(),
        11 => supp()
            .filter(col("s_nationkey").eq(lit(7i64)))
            .join(psupp(), "s_suppkey", "ps_suppkey", JoinType::Inner)
            .build(),
        12 => ord()
            .join(
                li().filter(
                    col("l_shipmode")
                        .in_list(vec![Value::Str("MAIL".into()), Value::Str("SHIP".into())])
                        .and(col("l_commitdate").lt(col("l_receiptdate")))
                        .and(col("l_shipdate").lt(col("l_commitdate")))
                        .and(col("l_receiptdate").ge(dlit(1994, 1, 1)))
                        .and(col("l_receiptdate").lt(dlit(1995, 1, 1))),
                ),
                "o_orderkey",
                "l_orderkey",
                JoinType::Inner,
            )
            .build(),
        13 => cust()
            .join(
                ord().filter(col("o_clerk").like("Clerk#00000%").not()),
                "c_custkey",
                "o_custkey",
                JoinType::OuterPreserveBuild,
            )
            .build(),
        14 => li()
            .filter(
                col("l_shipdate")
                    .ge(dlit(1995, 9, 1))
                    .and(col("l_shipdate").lt(dlit(1995, 10, 1))),
            )
            .join(prt(), "l_partkey", "p_partkey", JoinType::Inner)
            .build(),
        15 => li()
            .filter(
                col("l_shipdate")
                    .ge(dlit(1996, 1, 1))
                    .and(col("l_shipdate").lt(dlit(1996, 4, 1))),
            )
            .join(supp(), "l_suppkey", "s_suppkey", JoinType::Inner)
            .build(),
        16 => prt()
            .filter(
                col("p_brand")
                    .ne(lit("Brand#45"))
                    .and(col("p_type").like("MEDIUM POLISHED%").not())
                    .and(col("p_size").in_list(vec![
                        Value::Int(49),
                        Value::Int(14),
                        Value::Int(23),
                        Value::Int(45),
                        Value::Int(19),
                        Value::Int(3),
                        Value::Int(36),
                        Value::Int(9),
                    ])),
            )
            .join(psupp(), "p_partkey", "ps_partkey", JoinType::Inner)
            .build(),
        17 => prt()
            .filter(
                col("p_brand")
                    .eq(lit("Brand#23"))
                    .and(col("p_container").eq(lit("MED BOX"))),
            )
            .join(li(), "p_partkey", "l_partkey", JoinType::Inner)
            .build(),
        18 => ord()
            .join(
                li().filter(col("l_quantity").gt(lit(45i64))),
                "o_orderkey",
                "l_orderkey",
                JoinType::Inner,
            )
            .build(),
        19 => prt()
            .filter(
                col("p_brand")
                    .eq(lit("Brand#12"))
                    .and(col("p_container").in_list(vec![
                        Value::Str("SM CASE".into()),
                        Value::Str("SM BOX".into()),
                    ]))
                    .or(col("p_brand")
                        .eq(lit("Brand#23"))
                        .and(col("p_container").in_list(vec![
                            Value::Str("MED BAG".into()),
                            Value::Str("MED BOX".into()),
                        ]))),
            )
            .join(
                li().filter(
                    col("l_shipinstruct")
                        .eq(lit("DELIVER IN PERSON"))
                        .and(col("l_quantity").between(lit(1i64), lit(30i64))),
                ),
                "p_partkey",
                "l_partkey",
                JoinType::Inner,
            )
            .build(),
        20 => prt()
            .filter(col("p_name").like("forest%"))
            .join(psupp(), "p_partkey", "ps_partkey", JoinType::Inner)
            .join(
                li().filter(
                    col("l_shipdate")
                        .ge(dlit(1994, 1, 1))
                        .and(col("l_shipdate").lt(dlit(1995, 1, 1))),
                ),
                "ps_suppkey",
                "l_suppkey",
                JoinType::Inner,
            )
            .build(),
        21 => supp()
            .filter(col("s_nationkey").eq(lit(3i64)))
            .join(
                li().filter(col("l_receiptdate").gt(col("l_commitdate"))),
                "s_suppkey",
                "l_suppkey",
                JoinType::Inner,
            )
            .join(
                ord().filter(col("o_orderstatus").eq(lit("F"))),
                "l_orderkey",
                "o_orderkey",
                JoinType::Inner,
            )
            .build(),
        22 => cust()
            .filter(
                col("c_acctbal").gt(lit(0.0)).and(
                    col("c_phone")
                        .like("13%")
                        .or(col("c_phone").like("31%"))
                        .or(col("c_phone").like("23%"))
                        .or(col("c_phone").like("29%")),
                ),
            )
            .build(),
        _ => panic!("TPC-H has queries 1..=22, got {q}"),
    }
}

/// All 22 queries.
pub fn all_tpch_queries() -> Vec<(usize, Plan)> {
    (1..=22).map(|q| (q, tpch_query(q))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_math() {
        assert_eq!(date(1970, 1, 1), 0);
        assert_eq!(date(1970, 1, 2), 1);
        assert_eq!(date(1969, 12, 31), -1);
        assert_eq!(date(1998, 12, 1) - date(1998, 9, 2), 90);
        // TPC-H date span: 2557 days.
        assert_eq!(date(1998, 12, 31) - date(1992, 1, 1), 2556);
    }

    #[test]
    fn generates_all_tables_at_tiny_scale() {
        let catalog = generate_tpch(&TpchConfig {
            scale: 0.001,
            rows_per_partition: 200,
            clustered: true,
            seed: 1,
        });
        let names = catalog.table_names();
        for t in [
            "customer", "lineitem", "nation", "orders", "part", "partsupp", "region", "supplier",
        ] {
            assert!(names.contains(&t.to_owned()), "missing {t}");
        }
        let li = catalog.get("lineitem").unwrap();
        let li = li.read();
        assert!(li.total_rows() > 4000, "{}", li.total_rows());
        // Clustered on shipdate: partition 0 has the earliest dates.
        let m = li.metadata();
        let first_max = m[0].zone_maps[9].max.clone().unwrap();
        let last_min = m[m.len() - 1].zone_maps[9].min.clone().unwrap();
        assert!(matches!(
            first_max.sql_cmp(&last_min),
            Some(std::cmp::Ordering::Less)
        ));
    }

    #[test]
    fn all_queries_validate_against_schemas() {
        for (q, plan) in all_tpch_queries() {
            plan.check().unwrap_or_else(|e| panic!("Q{q}: {e}"));
        }
    }

    #[test]
    fn lineitem_dates_are_consistent() {
        let catalog = generate_tpch(&TpchConfig {
            scale: 0.001,
            rows_per_partition: 500,
            clustered: false,
            seed: 2,
        });
        let li = catalog.get("lineitem").unwrap();
        let li = li.read();
        let p = li.partition(0).unwrap();
        let (ship_i, rcpt_i) = (9usize, 11usize);
        for i in 0..p.row_count() {
            let ship = match p.column(ship_i).value_at(i) {
                Value::Date(d) => d,
                other => panic!("{other:?}"),
            };
            let rcpt = match p.column(rcpt_i).value_at(i) {
                Value::Date(d) => d,
                other => panic!("{other:?}"),
            };
            assert!(rcpt > ship, "receipt after ship");
        }
    }
}
