//! The running example's world: the Orders data, the supplier service,
//! and the four in-memory realizations (Figs. 4/6/8 and the Fig. 1
//! adapter baseline) wired to one database.

use std::collections::BTreeMap;

use flowcore::{
    CompletedInstance, Engine, FlowResult, Message, ProcessDefinition, ServiceRegistry,
};
use patterns::probe::{aggregation_query, seed_orders, ORDER_FROM_SUPPLIER};
use sqlkernel::{Database, SplitMix64, Value};

use crate::trace::{self, Slot};

/// The stacks of the in-memory round-robin, in metric-name order.
pub const STACKS: [&str; 4] = ["bis", "wf", "soa", "adapter"];

/// The item types of the paper's Orders table.
pub const ITEMS: [&str; 3] = ["gadget", "sprocket", "widget"];

/// Service name the adapter baseline is registered under.
const ADAPTER: &str = "orders_adapter";

/// Activity SQL_1 of Figs. 4/6/8 over the plain `Orders` table.
pub fn sql_1() -> String {
    aggregation_query("Orders")
}

/// One confirmation row as the workflows record it.
pub type Confirmation = (String, i64, String);

/// The benchmark-owned `OrderFromSupplier` service. It does constant
/// work, so its span is a control that no change to the program moves.
pub fn supplier(input: &Message) -> FlowResult<Message> {
    trace::span(Slot::Service, || {
        let item = input.scalar_part("ItemType")?.render();
        let qty = input.scalar_part("Quantity")?.render();
        Ok(Message::new().with_part(
            "Confirmation",
            Value::Text(format!("confirmed:{item}:{qty}")),
        ))
    })
}

/// Per-item sums and row counts of approved and unapproved orders: the
/// model SQL_1's answer is checked against.
#[derive(Debug, Clone, Default)]
pub struct OrdersModel {
    /// `[item] -> (approved sum, approved rows, unapproved sum, unapproved rows)`.
    items: [(i64, u64, i64, u64); 3],
}

impl OrdersModel {
    fn add(&mut self, item: usize, qty: i64, approved: bool) {
        let e = &mut self.items[item];
        if approved {
            e.0 += qty;
            e.1 += 1;
        } else {
            e.2 += qty;
            e.3 += 1;
        }
    }

    /// `UPDATE Orders SET Approved = NOT Approved WHERE ItemId = <item>`.
    pub fn flip(&mut self, item: usize) {
        let (a, ar, u, ur) = self.items[item];
        self.items[item] = (u, ur, a, ar);
    }

    /// The confirmations one instance records: one per item type with an
    /// approved order, in item order.
    pub fn expected(&self) -> Vec<Confirmation> {
        ITEMS
            .iter()
            .zip(&self.items)
            .filter(|(_, e)| e.1 > 0)
            .map(|(item, e)| (item.to_string(), e.0, format!("confirmed:{item}:{}", e.0)))
            .collect()
    }
}

/// Create the paper's schema and 6 orders (`patterns::probe::seed_orders`),
/// then add `extra` generated orders drawn from `seed`.
pub fn seed_database(db: &Database, extra: usize, seed: u64) -> OrdersModel {
    seed_orders(db);
    let mut model = OrdersModel::default();
    let paper = [
        (0, 7, false),
        (0, 3, true),
        (1, 2, true),
        (2, 10, true),
        (2, 5, true),
        (2, 4, false),
    ];
    for (item, qty, approved) in paper {
        model.add(item, qty, approved);
    }
    let mut rng = SplitMix64::new(seed);
    let rows: Vec<Vec<Value>> = (0..extra)
        .map(|i| {
            let item = rng.next_below(ITEMS.len() as u64) as usize;
            let qty = 1 + rng.next_below(20) as i64;
            let approved = rng.next_below(4) != 0;
            model.add(item, qty, approved);
            vec![
                Value::Int(7 + i as i64),
                Value::text(ITEMS[item]),
                Value::Int(qty),
                Value::Bool(approved),
            ]
        })
        .collect();
    if !rows.is_empty() {
        db.connect()
            .execute_batch("INSERT INTO Orders VALUES (?, ?, ?, ?)", &rows)
            .expect("generated orders insert");
    }
    model
}

/// SQL_1 answered directly, as confirmations.
pub fn direct_answer(db: &Database) -> Result<Vec<Confirmation>, String> {
    let rs = db
        .connect()
        .query(&sql_1(), &[])
        .map_err(|e| e.to_string())?;
    rs.rows
        .iter()
        .map(|r| {
            let item = r[0].render();
            let qty = r[1].as_i64().ok_or("SQL_1 quantity is not an integer")?;
            Ok((item.clone(), qty, format!("confirmed:{item}:{qty}")))
        })
        .collect()
}

/// Every row of `OrderConfirmations`, counted by content.
pub fn confirmation_counts(db: &Database) -> Result<BTreeMap<Confirmation, usize>, String> {
    let rs = db
        .connect()
        .query(
            "SELECT ItemId, Quantity, Confirmation FROM OrderConfirmations",
            &[],
        )
        .map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for r in &rs.rows {
        let qty = r[1]
            .as_i64()
            .ok_or_else(|| format!("confirmation quantity {:?} is not an integer", r[1]))?;
        *out.entry((r[0].render(), qty, r[2].render())).or_insert(0) += 1;
    }
    Ok(out)
}

/// Check that `OrderConfirmations` holds exactly `instances` copies of
/// `expected`, then empty it for the next batch.
pub fn verify_and_clear(
    db: &Database,
    expected: &[Confirmation],
    instances: usize,
) -> Result<(), String> {
    let got = confirmation_counts(db)?;
    let want: BTreeMap<Confirmation, usize> =
        expected.iter().map(|c| (c.clone(), instances)).collect();
    if got != want {
        return Err(format!(
            "confirmations of {instances} instances: expected {want:?}, found {got:?}"
        ));
    }
    db.connect()
        .execute("DELETE FROM OrderConfirmations", &[])
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// The four in-memory realizations of the running example over one
/// database, with the supplier service and the data adapter registered.
pub struct World {
    pub db: Database,
    engine: Engine,
    defs: Vec<ProcessDefinition>,
}

impl World {
    pub fn new(db: Database) -> World {
        let mut services = ServiceRegistry::new();
        services.register_fn(ORDER_FROM_SUPPLIER, supplier);
        let mut engine = Engine::with_services(services);
        adapter::register_data_adapter(engine.services_mut(), ADAPTER, db.clone());
        let registry = bis::DataSourceRegistry::new().with(db.clone());
        let defs = vec![
            bis::figure4_process(registry, db.name()),
            wf::figure6_process(db.clone()),
            soa::figure8_process(db.clone()),
            adapter::sample_process_via_adapter(ADAPTER),
        ];
        World { db, engine, defs }
    }

    /// Run one instance on stack `stack` (an index into [`STACKS`]).
    pub fn run(&self, stack: usize) -> Result<CompletedInstance, String> {
        let inst = self
            .engine
            .run(&self.defs[stack], flowcore::Variables::new())
            .map_err(|e| format!("{}: {e}", STACKS[stack]))?;
        if !inst.is_completed() {
            return Err(format!("{}: {:?}", STACKS[stack], inst.outcome));
        }
        Ok(inst)
    }
}

/// The correctness gate of the in-memory stacks: one instance of each
/// stack must record exactly the confirmations `expected`, so the four
/// stacks agree. Each check clears the confirmations, so every stack sees
/// the same data.
pub fn gate_stacks(world: &World, expected: &[Confirmation]) -> Result<(), String> {
    for (stack, name) in STACKS.iter().enumerate() {
        world.run(stack)?;
        verify_and_clear(&world.db, expected, 1).map_err(|e| format!("gate {name}: {e}"))?;
    }
    Ok(())
}

/// Row counts of the tables whose size the record tracks.
pub fn table_sizes(db: &Database) -> BTreeMap<String, usize> {
    ["Orders", "OrderConfirmations", "FLOW_INSTANCES"]
        .into_iter()
        .map(|t| (t.to_string(), db.table_len(t).unwrap_or(0)))
        .collect()
}
