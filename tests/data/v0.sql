-- A version 0 depex database (tables files, file_aliases and deps, no
-- user_version), as depex 0.1.0 wrote it before schema version 1, kept as
-- SQLite's iterdump of it: the demo tree's scan as 'demo' (its root stored
-- as /srv/demo), and tests/test_store.py release(1) and release(2) as '1'
-- and '2'. It stands for databases already on disk, so it is not rebuilt.
BEGIN TRANSACTION;
CREATE TABLE deps(
    id INTEGER PRIMARY KEY,
    snapshot_id INTEGER NOT NULL REFERENCES snapshots(id),
    from_file INTEGER NOT NULL REFERENCES files(id),
    needed_name TEXT NOT NULL,
    to_file INTEGER,
    origin TEXT
);
INSERT INTO "deps" VALUES(1,1,1,'libapp.so.1',2,'runpath');
INSERT INTO "deps" VALUES(2,1,2,'libc.so.6',6,'ldso-conf');
INSERT INTO "deps" VALUES(3,1,3,'libghost.so.9',NULL,NULL);
INSERT INTO "deps" VALUES(4,1,3,'libc.so.6',6,'ldso-conf');
INSERT INTO "deps" VALUES(5,1,4,'libm.so.6',7,'ldso-conf');
INSERT INTO "deps" VALUES(6,1,4,'libz.so.1',10,'ldso-conf');
INSERT INTO "deps" VALUES(7,1,5,'libc.so.6',6,'ldso-conf');
INSERT INTO "deps" VALUES(8,1,7,'libc.so.6',6,'ldso-conf');
INSERT INTO "deps" VALUES(9,1,8,'libgtk.so.0',5,'rpath');
INSERT INTO "deps" VALUES(10,1,10,'libc.so.6',6,'ldso-conf');
INSERT INTO "deps" VALUES(11,2,11,'lib1.so.1',12,'rpath');
INSERT INTO "deps" VALUES(12,2,11,'lib2.so.1',13,'env-path');
INSERT INTO "deps" VALUES(13,2,11,'lib3.so.1',14,'runpath');
INSERT INTO "deps" VALUES(14,2,11,'lib4.so.1',15,'ldso-conf');
INSERT INTO "deps" VALUES(15,2,11,'lib5.so.1',16,'default-dir');
INSERT INTO "deps" VALUES(16,2,11,'lib6.so.1',17,'direct');
INSERT INTO "deps" VALUES(17,2,11,'libghost.so.1',NULL,NULL);
INSERT INTO "deps" VALUES(18,2,12,'cycle-b',17,'runpath');
INSERT INTO "deps" VALUES(19,2,17,'cycle-a',12,'default-dir');
INSERT INTO "deps" VALUES(20,3,18,'lib1.so.2',19,'rpath');
INSERT INTO "deps" VALUES(21,3,18,'lib2.so.2',20,'env-path');
INSERT INTO "deps" VALUES(22,3,18,'lib3.so.2',21,'runpath');
INSERT INTO "deps" VALUES(23,3,18,'lib4.so.2',22,'ldso-conf');
INSERT INTO "deps" VALUES(24,3,18,'lib5.so.2',23,'default-dir');
INSERT INTO "deps" VALUES(25,3,18,'lib6.so.2',24,'direct');
INSERT INTO "deps" VALUES(26,3,18,'libghost.so.2',NULL,NULL);
INSERT INTO "deps" VALUES(27,3,19,'cycle-b',24,'runpath');
INSERT INTO "deps" VALUES(28,3,24,'cycle-a',19,'default-dir');
CREATE TABLE file_aliases(
    file_id INTEGER NOT NULL REFERENCES files(id),
    alias_path TEXT NOT NULL
);
INSERT INTO "file_aliases" VALUES(3,'/bin/broken');
INSERT INTO "file_aliases" VALUES(4,'/bin/tool');
INSERT INTO "file_aliases" VALUES(10,'/usr/lib/libz.so.1');
INSERT INTO "file_aliases" VALUES(11,'/usr/bin/app1');
INSERT INTO "file_aliases" VALUES(11,'/sbin/app1');
INSERT INTO "file_aliases" VALUES(12,'/lib/lib1.so.1');
INSERT INTO "file_aliases" VALUES(14,'/lib/lib3.so.1');
INSERT INTO "file_aliases" VALUES(16,'/lib/lib5.so.1');
INSERT INTO "file_aliases" VALUES(18,'/usr/bin/app2');
INSERT INTO "file_aliases" VALUES(18,'/sbin/app2');
INSERT INTO "file_aliases" VALUES(19,'/lib/lib1.so.2');
INSERT INTO "file_aliases" VALUES(21,'/lib/lib3.so.2');
INSERT INTO "file_aliases" VALUES(23,'/lib/lib5.so.2');
CREATE TABLE files(
    id INTEGER PRIMARY KEY,
    snapshot_id INTEGER NOT NULL REFERENCES snapshots(id),
    canonical_path TEXT NOT NULL,
    kind TEXT NOT NULL,
    soname TEXT,
    size_bytes INTEGER NOT NULL DEFAULT 0,
    UNIQUE(snapshot_id, canonical_path)
);
INSERT INTO "files" VALUES(1,1,'/opt/app/bin/app','executable',NULL,902);
INSERT INTO "files" VALUES(2,1,'/opt/app/lib/libapp.so.1','library','libapp.so.1',830);
INSERT INTO "files" VALUES(3,1,'/usr/bin/broken','executable',NULL,934);
INSERT INTO "files" VALUES(4,1,'/usr/bin/tool','executable',NULL,926);
INSERT INTO "files" VALUES(5,1,'/usr/lib/gtk/libgtk.so.0','library','libgtk.so.0',830);
INSERT INTO "files" VALUES(6,1,'/usr/lib/libc.so.6','library','libc.so.6',868);
INSERT INTO "files" VALUES(7,1,'/usr/lib/libm.so.6','library','libm.so.6',855);
INSERT INTO "files" VALUES(8,1,'/usr/lib/libplugin.so','library','libplugin.so',858);
INSERT INTO "files" VALUES(9,1,'/usr/lib/libspare.so','library','libspare.so',801);
INSERT INTO "files" VALUES(10,1,'/usr/lib/libz.so.1.2.13','library','libz.so.1',827);
INSERT INTO "files" VALUES(11,2,'/bin/app1','executable',NULL,101);
INSERT INTO "files" VALUES(12,2,'/usr/lib/r1/lib1.so','executable',NULL,1001);
INSERT INTO "files" VALUES(13,2,'/usr/lib/r1/lib2.so','library','lib2.so.1',1002);
INSERT INTO "files" VALUES(14,2,'/usr/lib/r1/lib3.so','elf-other',NULL,1003);
INSERT INTO "files" VALUES(15,2,'/usr/lib/r1/lib4.so','executable',NULL,1004);
INSERT INTO "files" VALUES(16,2,'/usr/lib/r1/lib5.so','library','lib5.so.1',1005);
INSERT INTO "files" VALUES(17,2,'/usr/lib/r1/lib6.so','elf-other',NULL,1006);
INSERT INTO "files" VALUES(18,3,'/bin/app2','executable',NULL,102);
INSERT INTO "files" VALUES(19,3,'/usr/lib/r2/lib1.so','executable',NULL,2001);
INSERT INTO "files" VALUES(20,3,'/usr/lib/r2/lib2.so','library','lib2.so.2',2002);
INSERT INTO "files" VALUES(21,3,'/usr/lib/r2/lib3.so','elf-other',NULL,2003);
INSERT INTO "files" VALUES(22,3,'/usr/lib/r2/lib4.so','executable',NULL,2004);
INSERT INTO "files" VALUES(23,3,'/usr/lib/r2/lib5.so','library','lib5.so.2',2005);
INSERT INTO "files" VALUES(24,3,'/usr/lib/r2/lib6.so','elf-other',NULL,2006);
CREATE TABLE snapshots(
    id INTEGER PRIMARY KEY,
    label TEXT NOT NULL UNIQUE,
    root_path TEXT NOT NULL,
    scanned_at TEXT NOT NULL,
    tool_version TEXT NOT NULL
);
INSERT INTO "snapshots" VALUES(1,'demo','/srv/demo','2026-10-19T07:15:29.739983+00:00','0.1.0');
INSERT INTO "snapshots" VALUES(2,'1','/srv/r1','2026-10-19T07:15:29.746980+00:00','0.1.0');
INSERT INTO "snapshots" VALUES(3,'2','/srv/r2','2026-10-19T07:15:29.748904+00:00','0.1.0');
CREATE INDEX idx_deps_snapshot ON deps(snapshot_id);
CREATE INDEX idx_files_snapshot ON files(snapshot_id);
COMMIT;
