//! DML access paths and bounded checkpoints.
//!
//! A compiled `UPDATE`/`DELETE` finds its victims through the same access
//! path a `SELECT` takes: a point lookup or range walk over an index
//! instead of a full scan. The interpreter, the differential oracle,
//! always scans the whole table. These tests pin the scan counters of
//! each path, the set-at-a-time batch path, and the checkpoint pieces
//! that keep memory flat when writes get fast: the streamed dirty set,
//! the streamed page packer, and the per-page in-memory store.

use std::collections::HashSet;
use std::sync::Arc;

use sqlkernel::page::{pack_stream, StreamPacker, MAX_CELL};
use sqlkernel::parser::parse_statement;
use sqlkernel::{
    pager, wal, Connection, Database, DbStats, MemLogStore, MemPageStore, PageKind, PageStore,
    Value, PAGE_SIZE,
};

/// `t(k INT PRIMARY KEY, v INT)` holding `rows` rows `(i, i)`.
fn keyed(name: &str, rows: i64) -> Database {
    let db = Database::new(name);
    let conn = db.connect();
    conn.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)", &[])
        .unwrap();
    let sets: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![Value::Int(i), Value::Int(i)])
        .collect();
    conn.execute_batch("INSERT INTO t VALUES (?, ?)", &sets)
        .unwrap();
    db
}

/// The scan counters' deltas over running `f` (other fields: absolute).
fn delta(db: &Database, f: impl FnOnce()) -> DbStats {
    let before = db.snapshot();
    f();
    let after = db.snapshot();
    DbStats {
        index_scans: after.index_scans - before.index_scans,
        range_scans: after.range_scans - before.range_scans,
        full_scans: after.full_scans - before.full_scans,
        full_scan_rows: after.full_scan_rows - before.full_scan_rows,
        ..after
    }
}

fn rows(conn: &Connection) -> Vec<Vec<Value>> {
    conn.query("SELECT k, v FROM t ORDER BY k", &[])
        .unwrap()
        .rows
}

/// Both executors: compiled through `execute`, interpreted through
/// `execute_ast`.
fn run_both_ways(conn: &Connection, sql: &str, params: &[Value], interpreted: bool) -> usize {
    let result = if interpreted {
        conn.execute_ast(&parse_statement(sql).unwrap(), params)
    } else {
        conn.execute(sql, params)
    };
    result.unwrap().affected().unwrap()
}

/// The compiled statement took `index_scans` point lookups and
/// `range_scans` range walks and scanned no row; the interpreted one
/// walked the whole table, `live_rows` rows, and no index.
fn assert_scanned(
    d: &DbStats,
    interpreted: bool,
    index_scans: u64,
    range_scans: u64,
    live_rows: u64,
) {
    let want = if interpreted {
        (0, 0, live_rows)
    } else {
        (index_scans, range_scans, 0)
    };
    assert_eq!(
        (d.index_scans, d.range_scans, d.full_scan_rows),
        want,
        "interpreted: {interpreted}"
    );
}

#[test]
fn pk_update_and_delete_are_point_lookups() {
    for interpreted in [false, true] {
        let db = keyed("pk_point", 50_000);
        let conn = db.connect();
        let d = delta(&db, || {
            let n = run_both_ways(
                &conn,
                "UPDATE t SET v = v + 1 WHERE k = ?",
                &[Value::Int(31_337)],
                interpreted,
            );
            assert_eq!(n, 1);
        });
        assert_scanned(&d, interpreted, 1, 0, 50_000);
        let d = delta(&db, || {
            let n = run_both_ways(
                &conn,
                "DELETE FROM t WHERE k = ?",
                &[Value::Int(42)],
                interpreted,
            );
            assert_eq!(n, 1);
        });
        assert_scanned(&d, interpreted, 1, 0, 50_000);
        let rs = conn.query("SELECT v FROM t WHERE k = 31337", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(31_338)]]);
        assert_eq!(db.table_len("t").unwrap(), 49_999);
    }
}

#[test]
fn range_delete_walks_the_index() {
    for interpreted in [false, true] {
        let db = keyed("range_del", 50_000);
        let conn = db.connect();
        let d = delta(&db, || {
            let n = run_both_ways(
                &conn,
                "DELETE FROM t WHERE k < ?",
                &[Value::Int(1_000)],
                interpreted,
            );
            assert_eq!(n, 1_000);
        });
        assert_scanned(&d, interpreted, 0, 1, 50_000);
        assert_eq!(db.table_len("t").unwrap(), 49_000);
    }
}

#[test]
fn non_indexed_predicate_stays_a_full_scan() {
    for interpreted in [false, true] {
        let db = keyed("full_scan", 2_000);
        let conn = db.connect();
        let d = delta(&db, || {
            run_both_ways(
                &conn,
                "UPDATE t SET v = 0 WHERE v = ?",
                &[Value::Int(7)],
                interpreted,
            );
        });
        assert_eq!(d.full_scan_rows, 2_000);
        assert_eq!(d.index_scans + d.range_scans, 0);
        assert_eq!(d.full_scans, 1, "interpreted: {interpreted}");
    }
}

#[test]
fn pk_batch_update_never_scans_and_matches_single_statements() {
    let sets: Vec<Vec<Value>> = (0..1_000)
        .map(|i| vec![Value::Int(i), Value::Int(i * 19 % 20_000)])
        .collect();
    let batched = keyed("batch_pk", 20_000);
    let conn = batched.connect();
    let d = delta(&batched, || {
        let n = conn
            .execute_batch("UPDATE t SET v = v + ? WHERE k = ?", &sets)
            .unwrap();
        assert_eq!(n, 1_000);
    });
    assert_eq!(d.full_scan_rows, 0, "no parameter set may scan the table");
    assert_eq!(d.index_scans, 1_000);

    let looped = keyed("batch_pk_loop", 20_000);
    let lconn = looped.connect();
    for p in &sets {
        lconn
            .execute("UPDATE t SET v = v + ? WHERE k = ?", p)
            .unwrap();
    }
    assert_eq!(rows(&conn), rows(&lconn));
}

/// A log with DDL, DML on several tables, an explicit transaction, a
/// checkpoint record, and an aborted statement.
fn busy_log() -> Vec<u8> {
    let store = MemLogStore::new();
    let db = Database::recover("busy_log", Arc::new(store.clone())).unwrap();
    let conn = db.connect();
    conn.execute_script(
        "CREATE TABLE a (id INT PRIMARY KEY, v TEXT);
         CREATE TABLE B (id INT PRIMARY KEY, v INT);
         CREATE SEQUENCE s;
         INSERT INTO a VALUES (1, 'x'), (2, 'y');
         INSERT INTO B VALUES (1, 10);",
    )
    .unwrap();
    db.checkpoint().unwrap();
    conn.execute_script(
        "CREATE INDEX a_v ON a (v);
         BEGIN;
         UPDATE B SET v = v + 1 WHERE id = 1;
         DELETE FROM a WHERE id = 2;
         COMMIT;
         CREATE TABLE c (id INT);
         INSERT INTO c VALUES (NEXTVAL('s'));
         DROP TABLE c;",
    )
    .unwrap();
    assert!(conn
        .execute("INSERT INTO a VALUES (1, 'dup')", &[])
        .is_err());
    store.bytes()
}

#[test]
fn streamed_dirty_set_matches_the_scanned_one() {
    let log = busy_log();
    let last = wal::scan(&log).records.last().unwrap().0;
    let mut cuts: Vec<usize> = (0..log.len()).step_by(7).collect();
    cuts.push(log.len());
    for cut in cuts {
        // Every prefix is a log with a torn (or no) tail.
        let bytes = &log[..cut];
        let mut torn = bytes.to_vec();
        if let Some(b) = torn.last_mut() {
            *b ^= 0x20; // a corrupt final frame
        }
        for after in [0, 1, last / 2, last] {
            for b in [bytes, &torn[..]] {
                assert_eq!(
                    pager::log_dirty_tables(b, after),
                    pager::dirty_tables(&wal::scan(b), after),
                    "cut {cut}, after {after}"
                );
            }
        }
    }
    let all = pager::log_dirty_tables(&log, 0);
    let expected: HashSet<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
    assert_eq!(all, expected);
}

#[test]
fn streamed_packing_matches_one_shot_layout() {
    for n in [
        0,
        1,
        MAX_CELL - 1,
        MAX_CELL,
        MAX_CELL + 1,
        3 * MAX_CELL,
        9_999,
    ] {
        let stream: Vec<u8> = (0..n).map(|i| (i % 253) as u8).collect();
        let mut next = 0u64;
        let whole = pack_stream(PageKind::Data, &stream, 2, 7, || {
            next += 1;
            next
        });
        let mut pages = Vec::new();
        let mut next = 0u64;
        let mut packer = StreamPacker::new(
            PageKind::Data,
            2,
            7,
            || {
                next += 1;
                next
            },
            |no, page| {
                pages.push((no, page));
                Ok(())
            },
        );
        for chunk in stream.chunks(97) {
            packer.write(chunk).unwrap();
        }
        let (len, nos) = packer.finish().unwrap();
        assert_eq!(len, n as u64);
        assert_eq!(nos, pages.iter().map(|(no, _)| *no).collect::<Vec<_>>());
        assert_eq!(pages, whole, "{n}-byte stream");
    }
}

#[test]
fn mem_page_store_keeps_flat_file_semantics() {
    let store = MemPageStore::new();
    assert!(store.is_empty());
    assert_eq!(store.page_count().unwrap(), 0);
    // A partial write to page 3: pages 0..3 read as zeros, the tail of
    // page 3 too, and the length counts the partial page.
    store.write_page(3, &[7u8; 100]).unwrap();
    assert_eq!(store.len(), 3 * PAGE_SIZE + 100);
    assert_eq!(store.page_count().unwrap(), 4);
    assert_eq!(store.read_page(1).unwrap(), vec![0u8; PAGE_SIZE]);
    let page = store.read_page(3).unwrap();
    assert_eq!(&page[..100], &[7u8; 100][..]);
    assert!(page[100..].iter().all(|b| *b == 0));
    // A torn rewrite keeps the old bytes past the prefix.
    store.write_page(3, &[9u8; 10]).unwrap();
    let page = store.read_page(3).unwrap();
    assert_eq!(&page[..10], &[9u8; 10][..]);
    assert_eq!(&page[10..100], &[7u8; 90][..]);
    // A write below the end does not shrink the store.
    store.write_page(0, &[1u8; PAGE_SIZE]).unwrap();
    assert_eq!(store.len(), 3 * PAGE_SIZE + 100);

    // flip_bit: in place, shared by clones, inside the written extent
    // even on a page never written, and a no-op past the end.
    let clone = store.clone();
    clone.flip_bit(3, 8 * 5 + 1);
    assert_eq!(store.read_page(3).unwrap()[5], 9 ^ 0b10);
    clone.flip_bit(2, 0);
    assert_eq!(store.read_page(2).unwrap()[0], 1);
    clone.flip_bit(3, 8 * 100);
    clone.flip_bit(9, 0);
    assert_eq!(store.read_page(3).unwrap()[100], 0);
    assert_eq!(store.read_page(9).unwrap(), vec![0u8; PAGE_SIZE]);
    assert_eq!(store.len(), 3 * PAGE_SIZE + 100);
}

#[test]
fn paged_checkpoints_survive_streamed_packing() {
    // Tables spanning many pages, rewritten and reopened repeatedly: the
    // streamed checkpoint must reload to exactly the pre-crash rows.
    let log = MemLogStore::new();
    let pages = MemPageStore::new();
    let db = Database::open_paged(
        "streamed",
        Arc::new(log.clone()),
        Arc::new(pages.clone()),
        8,
    )
    .unwrap();
    let conn = db.connect();
    conn.execute(
        "CREATE TABLE big (id INT PRIMARY KEY, pad TEXT, n INT)",
        &[],
    )
    .unwrap();
    let sets: Vec<Vec<Value>> = (0..3_000)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::text("p".repeat(i as usize % 50)),
                Value::Int(i),
            ]
        })
        .collect();
    conn.execute_batch("INSERT INTO big VALUES (?, ?, ?)", &sets)
        .unwrap();
    for round in 0..3i64 {
        db.checkpoint().unwrap();
        conn.execute(
            "UPDATE big SET n = n + ? WHERE id BETWEEN ? AND ?",
            &[
                Value::Int(round),
                Value::Int(round * 500),
                Value::Int(round * 500 + 900),
            ],
        )
        .unwrap();
        conn.execute("DELETE FROM big WHERE id = ?", &[Value::Int(round * 7)])
            .unwrap();
    }
    db.checkpoint().unwrap();
    let expected = conn.query("SELECT * FROM big ORDER BY id", &[]).unwrap();
    drop(conn);
    drop(db);
    let reopened = Database::open_paged(
        "streamed_reopen",
        Arc::new(MemLogStore::from_bytes(log.bytes())),
        Arc::new(pages),
        8,
    )
    .unwrap();
    let got = reopened
        .connect()
        .query("SELECT * FROM big ORDER BY id", &[])
        .unwrap();
    assert_eq!(got, expected);
}

/// The row ops one log records, with table names dropped.
fn row_ops(log: &[u8]) -> Vec<wal::WalOp> {
    wal::scan(log)
        .records
        .into_iter()
        .filter_map(|(_, rec)| match rec {
            wal::WalRecord::Op {
                op: op @ (wal::WalOp::Update { .. } | wal::WalOp::Delete { .. }),
                ..
            } => Some(op),
            _ => None,
        })
        .collect()
}

#[test]
fn index_driven_dml_logs_the_frames_a_full_scan_logs() {
    // The same statements against an indexed table and an index-free
    // twin: victims come out in row-id order either way, so the WAL
    // carries identical row ops in identical order.
    let run = |ddl: &str| {
        let store = MemLogStore::new();
        let db = Database::recover("frames", Arc::new(store.clone())).unwrap();
        let conn = db.connect();
        conn.execute_script(ddl).unwrap();
        // Keys inserted out of order, so key order != row-id order.
        for i in 0..300i64 {
            let k = (i * 37) % 300;
            conn.execute(
                "INSERT INTO t VALUES (?, ?, ?)",
                &[
                    Value::Int(k),
                    Value::Int(i % 7),
                    Value::text(format!("s{:03}", k % 41)),
                ],
            )
            .unwrap();
        }
        // Statement by statement through `execute`, so each compiles and
        // takes its access path (a script runs on the interpreter, which
        // scans in full).
        let d = delta(&db, || {
            for sql in [
                "UPDATE t SET v = v + 1 WHERE k BETWEEN 40 AND 120",
                "UPDATE t SET k = k + 1000 WHERE k >= 250",
                "DELETE FROM t WHERE s < 's010'",
                "BEGIN",
                "UPDATE t SET s = 'moved' WHERE s = 's020'",
                "DELETE FROM t WHERE s = 's020'",
                "DELETE FROM t WHERE k > 1100",
                "UPDATE t SET v = -1 WHERE s = 'moved'",
                "COMMIT",
            ] {
                conn.execute(sql, &[]).unwrap();
            }
            for k in [3i64, 77, 1290] {
                conn.execute("DELETE FROM t WHERE k = ?", &[Value::Int(k)])
                    .unwrap();
            }
        });
        (row_ops(&store.bytes()), d.full_scan_rows)
    };
    let (indexed, scanned_rows) = run("CREATE TABLE t (k INT PRIMARY KEY, v INT, s TEXT);
         CREATE INDEX t_s ON t (s);");
    let (bare, _) = run("CREATE TABLE t (k INT, v INT, s TEXT);");
    assert_eq!(scanned_rows, 0, "every statement found its rows by index");
    assert!(indexed.len() > 100);
    assert_eq!(indexed, bare);
}
